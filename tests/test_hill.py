import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hexspec.errors import DomainError
from hexspec.hill import (
    BandInverter,
    dirichlet_eigenvalues,
    discriminant,
    discriminant_batch,
    hill_bands,
    hill_bands_first_n,
    integrate_monodromy,
    invert_discriminant_on_band,
)
from hexspec.potentials import parse_potential

V0 = parse_potential("zero")
VM = parse_potential("mathieu:20")


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
    assert sol.c1 == pytest.approx(sol.s1p, abs=1e-9)
    assert sol.step_error <= 1e-9


def test_monodromy_rejects_too_few_steps():
    with pytest.raises(DomainError):
        integrate_monodromy(V0, 1.0, steps=32)


@settings(max_examples=30, deadline=None)
@given(lam=st.floats(-5.0, 120.0))
def test_wronskian_property(lam):
    for V in (V0, VM):
        sol = integrate_monodromy(V, lam)
        assert abs(sol.wronskian - 1.0) <= 1e-9
        assert abs(sol.c1 - sol.s1p) <= 1e-9


def test_discriminant_zero_potential_values():
    assert discriminant(V0, 4 * math.pi ** 2) == pytest.approx(1.0, abs=1e-9)
    assert discriminant(V0, (math.pi / 2) ** 2) == pytest.approx(0.0, abs=1e-10)


def test_hill_bands_zero_potential():
    bands = hill_bands(V0, 25 * math.pi ** 2 + 1.0)
    assert len(bands) >= 5
    for k, b in enumerate(bands[:5], start=1):
        assert b.alpha == pytest.approx(math.pi ** 2 * (k - 1) ** 2, abs=1e-8)
        assert b.beta == pytest.approx(math.pi ** 2 * k ** 2, abs=1e-8)
        expected = "decreasing" if k % 2 == 1 else "increasing"
        assert b.monotonicity == expected


def test_hill_band_edges_have_unit_discriminant():
    for V, lmax in ((V0, 100.0), (VM, 200.0)):
        for b in hill_bands(V, lmax):
            assert abs(abs(discriminant(V, b.alpha)) - 1.0) < 1e-8
            assert abs(abs(discriminant(V, b.beta)) - 1.0) < 1e-8


def test_mathieu_bands_have_open_gaps():
    bands = hill_bands(VM, 200.0)
    assert len(bands) >= 3
    for b1, b2 in zip(bands, bands[1:]):
        assert b2.alpha - b1.beta > 1e-3  # all low gaps of mathieu:20 are open


def test_hill_bands_empty_below_first_band():
    assert hill_bands(VM, -20.0) == []


def test_dirichlet_eigenvalues_zero_potential():
    dirs = dirichlet_eigenvalues(V0, 100.0)
    expected = [k ** 2 * math.pi ** 2 for k in (1, 2, 3)]
    assert len(dirs) == 3
    assert np.allclose(dirs, expected, atol=1e-8)


def test_dirichlet_eigenvalues_at_band_edges():
    for V, lmax in ((V0, 150.0), (VM, 200.0)):
        edges = [e for b in hill_bands(V, lmax) for e in (b.alpha, b.beta)]
        for d in dirichlet_eigenvalues(V, lmax):
            assert min(abs(d - e) for e in edges) < 1e-6
            assert abs(abs(discriminant(V, d)) - 1.0) < 1e-8


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
        for w in (-0.9, -0.3, 0.2, 0.8):
            lam = invert_discriminant_on_band(V, band, w)
            assert abs(discriminant(V, lam) - w) <= 1e-10


def test_invert_discriminant_rejects_outside_range():
    band = hill_bands_first_n(V0, 1)[0]
    with pytest.raises(DomainError):
        invert_discriminant_on_band(V0, band, 1.5)


def test_band_inverter_matches_bisection():
    band = hill_bands_first_n(VM, 1)[0]
    inv = BandInverter(VM, band)
    ws = np.linspace(-1.0, 1.0, 21)
    fast = inv(ws)
    slow = [invert_discriminant_on_band(VM, band, w) for w in ws]
    assert np.max(np.abs(fast - slow)) < 1e-8


def test_band_inverter_maps_edge_values_to_edges():
    # the spline's edge values are off by ~1e-15 with either sign, so the
    # bisection direction must come from the band's monotonicity; the
    # tolerance covers the ill-conditioned closed-gap edges of V=0
    for V, n in ((V0, 5), (VM, 3)):
        for band in hill_bands_first_n(V, n):
            w = discriminant_batch(V, [band.alpha, band.beta])
            got = BandInverter(V, band)(w)
            assert np.max(np.abs(got - [band.alpha, band.beta])) < 1e-5
