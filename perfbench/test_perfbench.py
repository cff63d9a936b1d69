"""Tests for the benchmark's own checks: each reference agrees with hexspec on
a small case, and each check rejects a deliberately perturbed result.

    PYTHONPATH=src python -m pytest -q perfbench/test_perfbench.py
"""

import copy
import math
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from hexspec import dynamics, graph, hill, jacobi, qlambda  # noqa: E402
from hexspec.flux import Flux  # noqa: E402
from hexspec.potentials import PotentialSpec  # noqa: E402

import references as ref  # noqa: E402
import tracing  # noqa: E402
from workloads import (GOLDEN, Bands, Butterfly, Lyapunov, Spectra,  # noqa: E402
                       mathieu, reduced_fractions)

STEPS = 512  # coarse RK4 keeps the program side fast; error ~1e-7 here
VM = PotentialSpec.mathieu(20.0)


def messages(report) -> str:
    return " | ".join(report.errors)


# ------------------------------------------------ references against hexspec


def test_hill_fourier_matches_program_bands_and_dirichlet():
    hf = ref.HillFourier(mathieu(20.0))
    bands = hill.hill_bands(VM, 40.0, steps=STEPS)
    assert len(bands) == 2
    for b, (lo, hi) in zip(bands, hf.bands(2)):
        assert abs(b.alpha - lo) < 1e-5 and abs(b.beta - hi) < 1e-5
    dirs = hill.dirichlet_eigenvalues(VM, 40.0, steps=STEPS)
    want = ref.dirichlet_eigenvalues(mathieu(20.0), len(dirs))
    assert np.allclose(dirs, want, atol=1e-5)
    lams = [bands[0].alpha + 0.4, hf.dirac_points(2)[1], bands[1].beta - 1.0]
    got = hill.discriminant_batch(VM, lams, steps=STEPS)
    for lam, k, d in zip(lams, (1, 2, 2), got):
        assert abs(hf.delta(lam, k) - d) < 1e-5
    assert abs(got[1]) < 1e-5  # the Dirac point of band 2


def test_free_closed_forms_match_program():
    lams = np.array([-2.0, 3.0, 40.0, 130.0])
    got = hill.discriminant_batch(PotentialSpec.zero(), lams, steps=STEPS)
    assert np.allclose(got, [ref.free_delta(x) for x in lams], atol=1e-6)


@pytest.mark.parametrize("p,q", [(0, 1), (1, 2), (1, 3), (2, 7), (5, 13)])
def test_bloch_eigenvalues_lie_in_rational_spectrum(p, q):
    sigma = list(jacobi.rational_spectrum(p, q).intervals)
    rng = np.random.default_rng(q)
    for theta, nu in rng.random((6, 2)):
        for e in ref.bloch_eigenvalues(p, q, theta, nu):
            assert ref.contains(sigma, e, 1e-9)
    # the Bloch spectra reach the program's outer band edges
    es = [e for th in np.linspace(0, 1, 41) for nu in np.linspace(0, 1, 21)
          for e in ref.bloch_eigenvalues(p, q, th, nu)]
    assert abs(min(es) - sigma[0][0]) < 1e-2 and abs(max(es) - sigma[-1][1]) < 1e-2


def q_map(sigma):
    """sigma(Q) = +-sqrt(Sigma/9 + 1/3) with the bottom edge of Sigma at -3,
    so the two middle bands touch at 0."""
    sigma = [(-3.0, sigma[0][1])] + list(sigma[1:])
    pos = [(math.sqrt(max(a / 9 + 1 / 3, 0.0)), math.sqrt(b / 9 + 1 / 3)) for a, b in sigma]
    return sorted([(-hi, -lo) for lo, hi in pos] + pos)


def test_q_map_matches_program():
    for p, q in reduced_fractions(8):
        sigma = jacobi.rational_spectrum(p, q)
        got = list(qlambda.q_spectrum(sigma).bands.intervals)
        if not Spectra.dirac_edge_fault(got, q):
            assert np.allclose(got, q_map(list(sigma.intervals)), atol=1e-12)


def test_lyapunov_product_matches_program():
    flux = Flux.real(GOLDEN)
    est = dynamics.lyapunov(-5.0, dynamics.CocycleConfig(flux=flux))
    assert abs(est.value - ref.lyapunov_product(-5.0, GOLDEN, est.n_used, 193, 0.3)) < 1e-3


# ------------------------------------------------ checks reject perturbations


def free_butterfly(q_max: int, n_bands: int):
    """Exact V = 0 butterfly columns: Delta = cos sqrt(lam) inverted in
    closed form on every Hill band."""
    cols = {}
    for p, q in reduced_fractions(q_max):
        qb = qlambda.q_spectrum(jacobi.rational_spectrum(p, q)).bands.intervals
        for k in range(1, n_bands + 1):
            def lam(w):
                s = (k - 1) * math.pi + math.acos(w) if k % 2 else k * math.pi - math.acos(w)
                return s * s
            cols[(p, q, k)] = sorted(tuple(sorted((lam(a), lam(b)))) for a, b in qb)
    return cols


@pytest.fixture(scope="module")
def butterfly_case():
    wl = Butterfly()
    wl.q_max, wl.n_bands = 5, 2
    fracs = reduced_fractions(5)
    inp = {"fracs": fracs, "sample": [((2, 5), [(0.3, 0.7), (0.8, 0.1)])]}
    lines = [ref.free_dirichlet(k) for k in (1, 2)]
    return wl, inp, free_butterfly(5, 2), lines


def test_butterfly_check_accepts_exact_columns(butterfly_case):
    wl, inp, cols, lines = butterfly_case
    report = wl.check_data(inp, cols, lines)
    assert report.correct, messages(report)
    assert report.attempted == 2 * len(inp["fracs"]) and report.failed == 0


@pytest.mark.parametrize("perturb,expect", [
    ("dirichlet", "Dirichlet lines"),
    ("shift", "asymmetric"),
    ("outside", "outside Hill band"),
    ("drop_dirac", "Dirac point"),
    ("widen", "exceeds the sigma(Q) bound"),
    ("drop_band", "Bloch eigenvalue"),
    ("missing", "columns missing"),
])
def test_butterfly_check_rejects(butterfly_case, perturb, expect):
    wl, inp, cols, lines = butterfly_case
    cols, lines = copy.deepcopy(cols), list(lines)
    col = cols[(2, 5, 2)]
    if perturb == "dirichlet":
        lines[1] += 1e-6
    elif perturb == "shift":
        col[0] = (col[0][0] + 1e-4, col[0][1])
    elif perturb == "outside":
        col[0] = (ref.free_band(2)[0] - 1e-3, col[0][1])
    elif perturb == "drop_dirac":
        d = ref.free_dirac(2)
        cols[(2, 5, 2)] = [b for b in col if not b[0] - 1e-8 <= d <= b[1] + 1e-8]
    elif perturb == "widen":
        cols[(2, 5, 2)] = [(col[0][0], col[-1][1])]  # the gaps filled in
    elif perturb == "drop_band":
        # a band and its mirror image, which map to the same band of Sigma
        cols[(2, 5, 2)] = [b for i, b in enumerate(col) if i not in (1, len(col) - 2)]
    elif perturb == "missing":
        del cols[(1, 4, 1)]
    report = wl.check_data(inp, cols, lines)
    assert not report.correct and expect in messages(report), messages(report)


@pytest.fixture(scope="module")
def bands_case():
    V = mathieu(20.0)
    hf = ref.HillFourier(V)
    hill_ref = {"bands": hf.bands(3), "dirac": hf.dirac_points(3),
                "dirichlet": ref.dirichlet_eigenvalues(V, 6)}
    fluxes = [Flux.rational(1, 3), Flux.rational(2, 5)]
    data = []
    for f in fluxes:
        qb = qlambda.q_spectrum(jacobi.rational_spectrum(f.p, f.q)).bands.intervals
        per_flux = []
        for k in (1, 2, 3):
            (a, b), d = hill_ref["bands"][k - 1], hill_ref["dirac"][k - 1]
            lam = lambda w: hf.eigenvalues(math.acos(w))[k - 1]
            bands = sorted(tuple(sorted((lam(w1), lam(w2)))) for w1, w2 in qb)
            dirs = [e for e in (a, b)
                    if min(abs(e - x) for x in hill_ref["dirichlet"]) < 1e-6]
            per_flux.append((k, a, b, d, dirs, bands))
        data.append(per_flux)
    inp = {"fluxes": fluxes, "sample": [(3, [0, 1]), (2, [0, 2])]}
    return Bands(), inp, data, hill_ref, hf.delta


def test_bands_check_accepts_reference_result(bands_case):
    wl, inp, data, hill_ref, delta = bands_case
    report = wl.check_data(inp, data, hill_ref, delta)
    assert report.correct, messages(report)
    assert report.attempted == 6


@pytest.mark.parametrize("perturb,expect", [
    ("edge", "Hill's method"),
    ("dirac", "Dirac point"),
    ("dirichlet", "Dirichlet points"),
    ("mirror", "mirror edges"),
    ("count", "bands, expected"),
])
def test_bands_check_rejects(bands_case, perturb, expect):
    wl, inp, data, hill_ref, delta = bands_case
    data = copy.deepcopy(data)
    k, a, b, d, dirs, bands = data[1][1]  # flux 2/5, Hill band 2 (sampled)
    if perturb == "edge":
        a += 1e-6
    elif perturb == "dirac":
        d += 1e-6
    elif perturb == "dirichlet":
        dirs = dirs[:-1]
    elif perturb == "mirror":
        bands[0] = (bands[0][0] + 1e-3, bands[0][1])
    elif perturb == "count":
        bands = bands[2:]
    data[1][1] = (k, a, b, d, dirs, bands)
    report = wl.check_data(inp, data, hill_ref, delta)
    assert not report.correct and expect in messages(report), messages(report)


@pytest.fixture(scope="module")
def spectra_case():
    wl = Spectra()
    wl.levels = 6
    fracs = reduced_fractions(12)
    sigmas = [list(jacobi.rational_spectrum(p, q).intervals) for p, q in fracs]
    qbands = [q_map(s) for s in sigmas]  # sigma(Q) without the fault
    covers = [dynamics.irrational_cover(GOLDEN, n, wl.c2) for n in range(wl.levels)]
    cov = [(c.p_n, c.q_n, list(c.intervals.intervals)) for c in covers]
    nested = [True] * (wl.levels - 1)
    inp = {"fracs": fracs, "alpha": GOLDEN,
           "sample": [((3, 7), [(0.2, 0.4), (0.9, 0.5)]), ((5, 12), [(0.6, 0.0)])]}
    return wl, inp, sigmas, qbands, cov, nested


def test_spectra_check_accepts_exact_result(spectra_case):
    wl, inp, sigmas, qbands, cov, nested = spectra_case
    report = wl.check_data(inp, sigmas, qbands, cov, nested)
    assert report.correct, messages(report)
    assert report.failed == 0 and report.attempted == len(inp["fracs"]) + wl.levels


def test_spectra_counts_the_dirac_edge_fault_as_failed(spectra_case):
    wl, inp, sigmas, qbands, cov, nested = spectra_case
    qbands = copy.deepcopy(qbands)
    i = inp["fracs"].index((2, 5))
    qb = qbands[i]
    qb[4], qb[5] = (qb[4][0], -7e-9), (7e-9, qb[5][1])
    qbands[i] = sorted(qb + [(0.0, 0.0)])
    report = wl.check_data(inp, sigmas, qbands, cov, nested)
    assert report.correct and report.failed == 1, messages(report)
    qbands[i] = sorted(qb + [(0.5, 0.5)])  # a different extra band is an error
    report = wl.check_data(inp, sigmas, qbands, cov, nested)
    assert not report.correct and report.failed == 0


@pytest.mark.parametrize("perturb,expect", [
    ("measure", ">= 16 pi/(3q)"),
    ("bottom", "not -3"),
    ("asymmetric", "not symmetric"),
    ("outside", "not inside (-1, 1)"),
    ("qmap", "is not +-sqrt"),
    ("bloch", "Bloch eigenvalue"),
    ("shrink", "does not shrink"),
    ("nesting", "cover nesting"),
])
def test_spectra_check_rejects(spectra_case, perturb, expect):
    wl, inp, sigmas, qbands, cov, nested = spectra_case
    sigmas, qbands, cov, nested = map(copy.deepcopy, (sigmas, qbands, cov, nested))
    i = inp["fracs"].index((3, 7))
    if perturb == "measure":
        sigmas[i] = [(-3.0, 6.0)] + sigmas[i][1:]
    elif perturb == "bottom":
        sigmas[i][0] = (-3.0 + 1e-9, sigmas[i][0][1])
    elif perturb == "asymmetric":
        qbands[i][0] = (qbands[i][0][0] + 1e-9, qbands[i][0][1])
    elif perturb == "outside":
        qbands[i][0] = (-1.0, qbands[i][0][1])
        qbands[i][-1] = (qbands[i][-1][0], 1.0)
    elif perturb == "qmap":
        qbands[i] = [(a * 1.001, b * 1.001) for a, b in qbands[i]]
    elif perturb == "bloch":
        sigmas[i] = sigmas[i][:2] + sigmas[i][3:]
    elif perturb == "shrink":
        cov[3] = (cov[3][0], cov[3][1], [(-3.0, 6.0)])
    elif perturb == "nesting":
        nested[2] = False
    report = wl.check_data(inp, sigmas, qbands, cov, nested)
    assert not report.correct and expect in messages(report), messages(report)


LYAP_INP = {"energies": [-5.0, 1.3, -3.0],
            "config": dynamics.CocycleConfig(flux=Flux.real(GOLDEN))}


def test_lyapunov_check_accepts_plausible_result():
    report = Lyapunov().check_data(LYAP_INP, [1.47, 0.81, 0.005],
                                   [1.0, -1.0, 1.0, -1.0, 1.0, -1.0], {0: 1.471})
    assert report.correct, messages(report)
    assert report.attempted == 9


@pytest.mark.parametrize("values,accs,refs,expect", [
    ([1.47, -0.01, 0.005], None, None, "< 0"),
    ([1.47, 0.81, 0.05], None, None, "Dirac energy"),
    (None, None, {0: 1.5}, "reference product"),
    (None, [1.0, -1.0, 0.9, -1.0, 1.0, -1.0], None, "not near an integer"),
    (None, [1.0, -1.0, 1.0, -1.0, 1.03, -1.0], None, "within 0.02"),
])
def test_lyapunov_check_rejects(values, accs, refs, expect):
    report = Lyapunov().check_data(
        LYAP_INP, values or [1.47, 0.81, 0.005],
        accs or [1.0, -1.0, 1.0, -1.0, 1.0, -1.0], refs or {0: 1.471})
    assert not report.correct and expect in messages(report), messages(report)


# ------------------------------------------------------------------- tracing


def test_tracer_self_time_and_counts():
    tr = tracing.Tracer()
    mod = types.SimpleNamespace()
    mod.inner = lambda: time.sleep(0.02)
    mod.outer = lambda: (time.sleep(0.01), mod.inner())
    tr.wrap(mod, "inner", "inner", lambda a, k, r: tr.count("n", 2))
    tr.wrap(mod, "outer", "outer")
    tr.active = True
    mod.outer()
    tr.uninstall()
    mod.outer()  # untraced after uninstall
    s = tr.summary()
    assert s["outer"]["calls"] == 1 and s["inner"]["calls"] == 1
    assert s["outer"]["s"] >= s["inner"]["s"] >= 0.02
    assert abs(s["outer"]["self_s"] - (s["outer"]["s"] - s["inner"]["s"])) < 1e-9
    assert tr.counts["n"] == 2


def test_install_restores_every_wrapped_attribute():
    from hexspec import cli, intervals, potentials

    sites = [(graph, "BandInverter"), (graph, "rational_spectrum"), (hill, "hill_bands"),
             (cli, "main"), (intervals.BandList, "covers"),
             (potentials.PotentialSpec, "__call__"), (dynamics, "complexified_le")]
    before = [getattr(o, a) for o, a in sites]
    tr = tracing.install()
    try:
        assert all(getattr(o, a) is not b for (o, a), b in zip(sites, before))
        jacobi.rational_spectrum(1, 3)
        assert tr.counts["jacobi.rational_spectrum.q3_sum"] == 27
    finally:
        tr.uninstall()
    assert all(getattr(o, a) is b for (o, a), b in zip(sites, before))
