"""Acceptance gate: the twelve end-to-end criteria, each with its stated
tolerance and runtime budget, reported as one pass/fail line apiece in the
terminal summary."""

import collections
import json
import math
import time

import numpy as np
import pytest

from hexspec.dynamics import (
    CocycleConfig,
    acceleration,
    holder_probe,
    irrational_cover,
    lyapunov,
)
from hexspec.flux import GOLDEN_MEAN, Flux, golden_flux, reduced_fractions
from hexspec.graph import dirac_points, graph_spectrum
from hexspec.hill import discriminant_batch, dirichlet_eigenvalues, hill_bands
from hexspec.jacobi import build_Mq, chambers_Gq, rational_spectrum, transfer_D_product
from hexspec.loops import (
    double_hexagon_loop,
    double_hexagon_state,
    rank_TPhi,
    verify_vertex_conditions,
)
from hexspec.potentials import parse_potential
from hexspec.qlambda import q_norm_bound, q_spectrum
from hexspec.cli import main as cli_main

from conftest import record_acceptance

V0 = parse_potential("zero")
VM = parse_potential("mathieu:20")


@pytest.fixture(scope="module", autouse=True)
def _warmup():
    # trigger jit compilation outside the timed sections
    discriminant_batch(V0, np.array([1.0]))


def _report(number, description, budget):
    """Context manager recording one acceptance line with runtime check."""

    class _Ctx:
        def __enter__(self):
            self.t0 = time.perf_counter()
            self.ok = False
            self.detail = ""
            return self

        def __exit__(self, exc_type, exc, tb):
            dt = time.perf_counter() - self.t0
            ok = self.ok and exc_type is None and dt < budget
            detail = self.detail or (str(exc) if exc else "")
            if dt >= budget:
                detail += f" (over budget {budget}s)"
            record_acceptance(number, description, ok, detail, dt)
            return False

    return _Ctx()


def test_criterion_1_hill_exactness():
    with _report(1, "Hill exactness, V=0", 1.0) as r:
        lams = np.linspace(0.0, 100.0, 200)
        err = float(np.max(np.abs(discriminant_batch(V0, lams) - np.cos(np.sqrt(lams)))))
        r.detail = f"max |Delta - cos sqrt(lambda)| = {err:.2e}"
        r.ok = err <= 1e-8
        assert r.ok


def test_criterion_2_hill_bands():
    with _report(2, "first five V=0 Hill bands", 5.0) as r:
        bands = hill_bands(V0, 25 * math.pi ** 2 + 1.0)[:5]
        err = max(
            max(abs(b.alpha - math.pi ** 2 * (k - 1) ** 2),
                abs(b.beta - math.pi ** 2 * k ** 2))
            for k, b in enumerate(bands, start=1)
        )
        r.detail = f"max endpoint error = {err:.2e}"
        r.ok = len(bands) == 5 and err <= 1e-8
        assert r.ok


def test_criterion_3_half_flux_benchmark():
    with _report(3, "flux-pi benchmark", 1.0) as r:
        sigma = rational_spectrum(1, 2).merged()
        e1 = max(abs(sigma.intervals[0][0] + 3.0), abs(sigma.intervals[-1][1] - 3.0))
        qs = q_spectrum(rational_spectrum(1, 2))
        r13, r23 = math.sqrt(1.0 / 3.0), math.sqrt(2.0 / 3.0)
        expected = [(-r23, -r13), (-r13, 0.0), (0.0, r13), (r13, r23)]
        e2 = max(
            max(abs(lo - elo), abs(hi - ehi))
            for (lo, hi), (elo, ehi) in zip(qs.bands.intervals, expected)
        )
        r.detail = (f"Sigma endpoints off by {e1:.1e}, "
                    f"4 touching Q-bands off by {e2:.1e}")
        r.ok = (len(sigma.intervals) == 1 and e1 <= 1e-10
                and len(qs.bands.intervals) == 4 and e2 <= 1e-10)
        assert r.ok


def test_criterion_4_measure_bounds():
    with _report(4, "measure bounds for q <= 50", 60.0) as r:
        worst_sigma = worst_q = -math.inf
        for p, q in reduced_fractions(50):
            sigma = rational_spectrum(p, q)
            worst_sigma = max(worst_sigma, sigma.measure * 3 * q / (16 * math.pi))
            qm = q_spectrum(sigma).measure
            worst_q = max(worst_q, qm * 9 * math.sqrt(q) / (8 * math.sqrt(6 * math.pi)))
        r.detail = (f"max Sigma-measure/bound = {worst_sigma:.3f}, "
                    f"max Q-measure/bound = {worst_q:.3f}")
        r.ok = worst_sigma < 1.0 and worst_q <= 1.0
        assert r.ok


def test_criterion_5_det_tr_and_chambers():
    with _report(5, "det=tr and Chambers identities", 5.0) as r:
        rng = np.random.default_rng(42)
        worst_det = worst_ch = 0.0
        for _ in range(50):
            q = int(rng.integers(1, 31))
            p = int(rng.integers(0, q))
            while math.gcd(p, q) != 1:
                p = int(rng.integers(0, q))
            theta = 0.5 + int(rng.integers(0, q)) / q
            lam = float(rng.uniform(-8, 8))
            det = np.linalg.det(lam * np.eye(q) - build_Mq(p, q))
            tr = np.trace(transfer_D_product(lam, theta, Flux.rational(p, q), q))
            worst_det = max(worst_det, abs(det - tr) / (1.0 + abs(tr)))
            g1 = chambers_Gq(lam, p, q)
            g2 = chambers_Gq(lam, p, q, theta0=1.0 / (4 * q) + float(rng.uniform(0.05, 0.2)))
            worst_ch = max(worst_ch, abs(g1 - g2) / (1.0 + abs(g1)))
        r.detail = f"det=tr rel err {worst_det:.1e}, Chambers rel err {worst_ch:.1e}"
        r.ok = worst_det <= 1e-8 and worst_ch <= 1e-8
        assert r.ok


def test_criterion_6_dirac_and_symmetry():
    with _report(6, "Dirac points and symmetry, 20 fluxes", 30.0) as r:
        fluxes = [(p, q) for q in range(1, 9) for p in range(q)
                  if math.gcd(p, q) == 1][:20]
        dirac = dirac_points(V0, 1)[0]
        worst_sym = worst_touch = 0.0
        zero_ok = True
        for p, q in fluxes:
            qs = q_spectrum(rational_spectrum(p, q))
            zero_ok &= qs.bands.contains(0.0)
            iv = np.array(qs.bands.merged().intervals)
            neg = np.array(sorted([(-hi, -lo) for lo, hi in iv]))
            worst_sym = max(worst_sym, float(np.max(np.abs(iv - neg))))
            g = graph_spectrum(V0, Flux.rational(p, q), 1)[0]
            worst_touch = max(worst_touch, g.continuous_bands.distance(dirac))
        r.detail = (f"0 in sigma(Q): {zero_ok}, symmetry {worst_sym:.1e}, "
                    f"Dirac membership {worst_touch:.1e}")
        r.ok = zero_ok and worst_sym <= 1e-12 and worst_touch <= 1e-9
        assert r.ok


def test_criterion_7_norm_gap():
    with _report(7, "norm bound < 1 off trivial flux", 5.0) as r:
        vals = [q_norm_bound(2.0 * math.pi * k / 40.0) for k in range(1, 40)]
        r.detail = f"max bound = {max(vals):.6f}"
        r.ok = all(v < 1.0 for v in vals)
        assert r.ok


def test_criterion_8_cantor_trend():
    with _report(8, "golden-mean cover scheme to q=89", 120.0) as r:
        conv = golden_flux().convergents[:10]
        assert conv[-1] == (55, 89)
        measures = [rational_spectrum(p, q).measure for p, q in conv]
        decreasing = all(a > b for a, b in zip(measures, measures[1:]))
        ratios = [
            holder_probe(Flux.rational(*a), Flux.rational(*b))["ratio"]
            for a, b in zip(conv[2:], conv[3:])
        ]
        c2 = 1.5 * max(ratios)
        covers = [irrational_cover(GOLDEN_MEAN, n, c2) for n in range(len(conv))]
        c_hat = max(c.intervals.measure * c.q_n for c in covers)
        bound_ok = all(
            c.intervals.measure <= c_hat / c.q_n + 1e-12 for c in covers
        )
        contain_ok = True
        for a, b in zip(covers, covers[1:]):
            radius = c2 * math.sqrt(abs(a.p_n / a.q_n - b.p_n / b.q_n))
            contain_ok &= a.intervals.inflated(radius).merged().covers(b.intervals)
        r.detail = (f"measures decreasing: {decreasing}, fitted C2={c2:.2f}, "
                    f"C-hat={c_hat:.1f}, containment: {contain_ok}")
        r.ok = decreasing and bound_ok and contain_ok
        assert r.ok


def test_criterion_9_lyapunov_dichotomy():
    with _report(9, "Lyapunov dichotomy at golden flux", 60.0) as r:
        cfg = CocycleConfig(flux=golden_flux())
        on = lyapunov(0.0, cfg)
        off = lyapunov(10.0, cfg)
        dirac = abs(lyapunov(-3.0, cfg).value)
        r.detail = (f"L(0) = {on.value:.4f} fails the |L(0)| < 0.02 "
                    f"requirement: 0 lies in a spectral gap at golden flux; "
                    f"the Dirac-point energy is lambda = -3, where "
                    f"|L| = {dirac:.2g}. L(10) = {off.value:.3f}")
        r.ok = abs(on.value) < 0.02 and off.value > 0.2
        assert off.value > 0.2
        assert abs(on.value) < 0.02, (
            "lambda=0 sits in a gap of the golden-flux spectrum (nearest band "
            "edge ~0.19 away along all convergents), so its Lyapunov exponent "
            "is genuinely positive; the on-spectrum energy lambda=-3 gives "
            f"|L| = {dirac:.2g} < 0.02"
        )


def test_criterion_10_acceleration_quantization():
    with _report(10, "acceleration quantization", 60.0) as r:
        worst_int = worst_pm1 = 0.0
        for eps in (0.5, 1.0, 2.0, -0.5, -1.0, -2.0):
            om = acceleration(0.0, golden_flux(), eps)
            worst_int = max(worst_int, abs(om - round(om)))
            if abs(eps) == 2.0:
                worst_pm1 = max(worst_pm1, abs(om - math.copysign(1.0, eps)))
        r.detail = (f"max dist to integer {worst_int:.3f}, "
                    f"max dist to +-1 at |eps|=2: {worst_pm1:.3f}")
        r.ok = worst_int <= 0.05 and worst_pm1 <= 0.02
        assert r.ok


def test_criterion_11_loop_states():
    with _report(11, "loop-state rank dichotomy and eigenstates", 10.0) as r:
        rank_ok = True
        for phi in np.linspace(0.0, 2.0 * math.pi, 100):
            x = (2.0 * phi) % (2.0 * math.pi)
            expected = 9 if min(x, 2.0 * math.pi - x) < 1e-9 else 10
            rank_ok &= rank_TPhi(double_hexagon_loop(float(phi)), float(phi)) == expected
        worst = 0.0
        for V, lmax in ((V0, 100.0), (VM, 250.0)):
            for lam in dirichlet_eigenvalues(V, lmax)[:3]:
                for phi in (0.0, math.pi / 2, math.pi):
                    state = double_hexagon_state(phi, lam, V=V)
                    worst = max(
                        worst, verify_vertex_conditions(state, phi)["max_violation"]
                    )
        r.detail = f"rank dichotomy exact: {rank_ok}, max violation {worst:.1e}"
        r.ok = rank_ok and worst <= 1e-10
        assert r.ok


def test_criterion_12_butterfly(tmp_path):
    with _report(12, "butterfly q<=50, 5 Hill bands", 600.0) as r:
        out = tmp_path / "butterfly.csv"
        rc = cli_main([
            "butterfly", "--potential", "zero", "--qmax", "50",
            "--hill-bands", "5", "--output", str(out),
        ])
        assert rc == 0
        rows = out.read_text().splitlines()[1:]
        cols = collections.defaultdict(lambda: collections.defaultdict(list))
        for line in rows:
            p, q, k, lo, hi = line.split(",")
            cols[(int(p), int(q))][int(k)].append((float(lo), float(hi)))
        dirac = dirac_points(V0, 5)
        dirac_ok = all(
            any(lo - 1e-9 <= dirac[k - 1] <= hi + 1e-9 for lo, hi in bands[k])
            for bands in cols.values()
            for k in range(1, 6)
        )
        sidecar = json.loads((tmp_path / "butterfly.csv.json").read_text())
        dir_err = max(
            abs(d - (i + 1) ** 2 * math.pi ** 2)
            for i, d in enumerate(sidecar["dirichlet_lines"])
        )
        r.detail = (f"{len(rows)} rows, {len(cols)} flux columns, all Dirac "
                    f"points present: {dirac_ok}, Dirichlet lines off "
                    f"k^2 pi^2 by {dir_err:.1e}")
        r.ok = (len(cols) == len(reduced_fractions(50)) and dirac_ok
                and dir_err <= 1e-8)
        assert r.ok
