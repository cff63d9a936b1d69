"""Cross-module invariant suite behind the `hexspec verify` subcommand.

Each check is a named pure function returning (passed, detail); the runner
aggregates them deterministically (fixed RNG seed)."""

from __future__ import annotations

import math

import numpy as np

from . import hill, jacobi
from .dynamics import irrational_cover, holder_probe
from .flux import Flux, GOLDEN_MEAN, golden_flux, reduced_fractions
from .hill import (DEFAULT_STEPS, dirichlet_eigenvalues, discriminant_batch, hill_bands,
                   integrate_monodromy)
from .loops import double_hexagon_loop, hexagon_loop, rank_TPhi
from .potentials import parse_potential
from .qlambda import q_norm_bound, q_spectrum

SEED = 20260826


def _check_wronskian():
    """c s' - s c' = 1 at t = 1.  The half run gives it as (c s' - s c')^2
    at 1/2; its symmetry c(1) = s'(1) holds by construction, so is not
    checked."""
    worst = 0.0
    for spec in ("zero", "mathieu:20"):
        sol = integrate_monodromy(parse_potential(spec), np.linspace(-5.0, 100.0, 100))
        worst = max(worst, np.max(np.abs(sol.wronskian - 1.0)))
    return worst <= 1e-9, f"max wronskian deviation {worst:.2e}"


def _rk4_steps(Vn: np.ndarray, lams: np.ndarray, steps: int):
    """RK4 at step h = 1/steps on (u, u')' = (u', (V - lam) u) for both
    fundamental solutions, one step at a time, over the (len(Vn) - 1) / 2
    steps that Vn spans: Vn holds V at step starts and midpoints from t = 0.
    c and s ride in one state vector (c first), so each step costs one set
    of array operations.  Next to the state it counts the sign changes of c
    and of s across the step nodes, i.e. their zeros in (0, t_end].  The
    oracle of hill._rk4_loop: the same arguments and the same six arrays,
    none of its arithmetic."""
    h = 1.0 / steps
    n = lams.shape[0]
    lam2 = np.concatenate((lams, lams))
    u = np.concatenate((np.ones_like(lams), np.zeros_like(lams)))
    up = np.concatenate((np.zeros_like(lams), np.ones_like(lams)))
    neg = u < 0.0
    zeros = np.zeros(2 * n, dtype=np.int64)
    for i in range((Vn.shape[0] - 1) // 2):
        w0 = Vn[2 * i] - lam2
        wm = Vn[2 * i + 1] - lam2
        w1 = Vn[2 * i + 2] - lam2
        k1u = up
        k1p = w0 * u
        k2u = up + 0.5 * h * k1p
        k2p = wm * (u + 0.5 * h * k1u)
        k3u = up + 0.5 * h * k2p
        k3p = wm * (u + 0.5 * h * k2u)
        k4u = up + h * k3p
        k4p = w1 * (u + h * k3u)
        u, up = (u + (h / 6.0) * (k1u + 2.0 * k2u + 2.0 * k3u + k4u),
                 up + (h / 6.0) * (k1p + 2.0 * k2p + 2.0 * k3p + k4p))
        now = u < 0.0
        zeros += now != neg
        neg = now
    return u[:n], up[:n], u[n:], up[n:], zeros[:n], zeros[n:]


def _full_interval(V, lams):
    """The oracle of the half run: one _rk4_steps run over all of [0, 1] at
    the default h, which uses neither the evenness of V nor the kernel's
    step-matrix product.  Returns Delta, s(1), c'(1) and the Neumann and
    Dirichlet counts of eigenvalues below lams, the latter from the zeros of
    c and s on (0, 1]."""
    t_nodes = np.arange(2 * DEFAULT_STEPS + 1) * (0.5 / DEFAULT_STEPS)
    Vn = np.ascontiguousarray(V(t_nodes), dtype=float)
    lams = np.asarray(lams, dtype=float)
    c1, c1p, s1, s1p, zeros_c, zeros_s = _rk4_steps(Vn, lams, DEFAULT_STEPS)
    return s1p, s1, c1p, zeros_c + (c1 * c1p < 0.0), zeros_s


def _check_half_interval():
    """The half run, continued to t = 1 by the reflection at 1/2, against
    the full-interval oracle: Delta, s(1) and c'(1) within 1e-9, and the
    eigenvalue counts equal.  The 30 energies above 3000 reach up to
    COUNT_LAMBDA_MAX, where the kernel's count at block nodes has the least
    margin."""
    lams = np.concatenate((np.linspace(-30.0, 3000.0, 301),
                           np.linspace(3000.0, hill.COUNT_LAMBDA_MAX, 31)[1:]))
    worst, mismatches = 0.0, 0
    for spec in ("zero", "mathieu:20"):
        V = parse_potential(spec)
        _, c1p, s1, delta, n_neu, n_dir = hill._rk4_fundamental(V, lams, DEFAULT_STEPS)
        full = _full_interval(V, lams)
        worst = max(worst, *(np.max(np.abs(a - b)) for a, b in zip((delta, s1, c1p), full)))
        mismatches += int(np.sum(n_neu != full[3]) + np.sum(n_dir != full[4]))
    return worst <= 1e-9 and mismatches == 0, (
        f"max |half - full| of Delta, s(1), c'(1) {worst:.2e}, "
        f"{mismatches} eigenvalue counts differ")


def _check_step_doubling():
    worst = 0.0
    for spec in ("zero", "mathieu:20"):
        sol = integrate_monodromy(parse_potential(spec), np.linspace(0.0, 100.0, 25))
        worst = max(worst, np.max(sol.step_error))
    return worst <= 1e-9, f"max step-doubling error {worst:.2e}"


def _check_band_dirichlet():
    """Delta is 1 at alpha_1 and (-1)^k at beta_k, alpha_(k+1) and the k-th
    Dirichlet eigenvalue, which all bound gap k; checked through Delta of
    the run whose counts bisected them, so a wrong, missing or extra
    eigenvalue breaks the values or the sign pattern."""
    worst = 0.0
    for spec, lmax in (("zero", 250.0), ("mathieu:20", 200.0)):
        V = parse_potential(spec)
        edges = [e for b in hill_bands(V, lmax) for e in (b.alpha, b.beta)]
        dirs = dirichlet_eigenvalues(V, lmax)
        want = [(-1.0) ** ((j + 1) // 2) for j in range(len(edges))]
        want += [(-1.0) ** k for k in range(1, len(dirs) + 1)]
        delta = discriminant_batch(V, edges + dirs)
        worst = max(worst, float(np.max(np.abs(delta - want))))
    return worst <= 1e-8, f"max |Delta - (-1)^k| at band edges and Dirichlet points {worst:.2e}"


def _check_det_tr():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(50):
        q = int(rng.integers(1, 31))
        p = int(rng.integers(0, q))
        while math.gcd(p, q) != 1:
            p = int(rng.integers(0, q))
        theta = 0.5 + int(rng.integers(0, q)) / q
        lam = float(rng.uniform(-8, 8))
        det = np.linalg.det(lam * np.eye(q) - jacobi.build_Mq(p, q))
        tr = jacobi._trace_Dq(np.array([lam]), theta, p, q)[0]
        worst = max(worst, abs(det - tr) / (1.0 + abs(tr)))
    return worst <= 1e-8, f"max relative det-tr deviation {worst:.2e}"


def _check_chambers():
    worst = 0.0
    for q in range(1, 51):
        p = 1 if q > 1 else 0
        lam = 1.37
        g1 = jacobi.chambers_Gq(lam, p, q)
        g2 = jacobi.chambers_Gq(lam, p, q, theta0=1.0 / (4.0 * q) + 0.137)
        worst = max(worst, abs(g1 - g2) / (1.0 + abs(g1)))
    return worst <= 1e-10, f"max theta-dependence {worst:.2e}"


def _check_lidskii():
    rng = np.random.default_rng(SEED + 1)
    for _ in range(100):
        q = int(rng.integers(1, 21))
        p = int(rng.integers(0, q))
        while math.gcd(p, q) != 1:
            p = int(rng.integers(0, q))
        theta = float(rng.uniform(0, 1))
        m = jacobi.theta_spectrum(p, q, theta).measure
        if m > 4.0 * abs(jacobi.coeff_c(theta)) + 1e-9:
            return False, f"measure {m} exceeds 4|c| at p/q={p}/{q}, theta={theta}"
    return True, "per-theta measure below 4|c(theta)| on 100 samples"


def _check_trace_identity():
    """|prod_j c(theta + j p/q)| = 2|sin pi q (theta + 1/2)| and
    det D_q(theta) = |prod_j c(theta + j p/q)|^2; the determinant of the
    product loses digits as ||D_q||^2 grows, hence its scaled tolerance."""
    worst_prod = worst_det = 0.0
    rng = np.random.default_rng(SEED + 2)
    for _ in range(20):
        q = int(rng.integers(2, 15))
        p = int(rng.integers(1, q))
        while math.gcd(p, q) != 1:
            p = int(rng.integers(1, q))
        theta = float(rng.uniform(0.01, 0.45))
        lam = float(rng.uniform(-6, 6))
        flux = Flux.rational(p, q)
        D = jacobi.transfer_D_product(lam, theta, flux, q)
        prod_c = np.prod([jacobi.coeff_c(theta + j * p / q) for j in range(q)])
        env = 2.0 * abs(math.sin(math.pi * q * (theta + 0.5)))
        worst_prod = max(worst_prod, abs(abs(prod_c) - env))
        det_err = abs(np.linalg.det(D) - abs(prod_c) ** 2)
        worst_det = max(worst_det, det_err / (1.0 + np.linalg.norm(D) ** 2))
    ok = worst_prod <= 1e-9 and worst_det <= 1e-12
    return ok, (f"|prod c| - 2|sin| deviation {worst_prod:.2e}, "
                f"scaled det(D_q) - |prod c|^2 deviation {worst_det:.2e}")


def _check_banded_vs_dense():
    """Sigma from rational_spectrum's banded solve against the hull of the
    dense eigvalsh of the same two blocks (_bloch_blocks).  55/89 and 7/10
    are solved at their mirrors 34/89 and 3/10, so the dense hull at the p
    asked for checks the mirror for odd and even q."""
    worst = 0.0
    for p, q in ((0, 1), (1, 2), (2, 7), (55, 89), (7, 10)):
        eigs = np.linalg.eigvalsh(
            jacobi._bloch_blocks(p, q, jacobi._theta_stars(q), [-1.0, 1.0]))
        dense = np.stack((eigs.min(axis=0), eigs.max(axis=0)), axis=1)
        banded = np.array(jacobi.rational_spectrum(p, q).intervals)
        if banded.shape != dense.shape:
            return False, f"{len(banded)} bands at p/q={p}/{q}, dense gives {q}"
        worst = max(worst, float(np.max(np.abs(banded - dense))))
    return worst <= 1e-12, f"max |banded - dense| Sigma edge {worst:.2e}"


def _check_measure_decay():
    fib = [(1, 2), (2, 3), (3, 5), (5, 8), (8, 13), (13, 21)]
    prev = math.inf
    for p, q in fib:
        m = jacobi.rational_spectrum(p, q).measure
        if not m < 16.0 * math.pi / (3.0 * q) or not m < prev:
            return False, f"measure {m} fails at {p}/{q}"
        prev = m
    return True, "measures decrease along Fibonacci convergents"


def _check_q_symmetry():
    for p, q in reduced_fractions(10):
        bands = q_spectrum(jacobi.rational_spectrum(p, q)).bands
        m = bands.merged()
        if np.max(np.abs(m.lo + m.hi[::-1])) > 1e-12 or not bands.contains(0.0):
            return False, f"symmetry/zero fails at {p}/{q}"
    return True, "negation symmetry and 0 membership for q <= 10"


def _check_norm_bound():
    vals = [q_norm_bound(2.0 * math.pi * k / 12) for k in range(1, 12)]
    if all(v < 1.0 for v in vals):
        return True, f"max bound {max(vals):.6f} < 1"
    return False, f"bound reaches {max(vals)}"


def _check_correction_integral():
    th = (np.arange(200000) + 0.5) / 200000
    val = float(np.mean(np.log(np.abs(jacobi.coeff_c(th)))))
    return abs(val) <= 1e-3, f"mean log|c| = {val:.2e}"


def _check_rank_dichotomy():
    for phi in np.linspace(0.0, 2.0 * math.pi, 50):
        for loop in (hexagon_loop(phi), double_hexagon_loop(phi)):
            x = (loop.q_enc * phi) % (2.0 * math.pi)
            trivial = min(x, 2.0 * math.pi - x) < 1e-9
            expected = loop.n_edges - (1 if trivial else 0)
            if rank_TPhi(loop, phi) != expected:
                return False, f"rank mismatch at phi={phi}, n={loop.n_edges}"
    return True, "rank dichotomy exact on 50-point flux grid"


def _check_cover_containment():
    g = golden_flux()
    ratios = [
        holder_probe(Flux.rational(*a), Flux.rational(*b))["ratio"]
        for a, b in zip(g.convergents[2:8], g.convergents[3:9])
    ]
    c2 = 1.5 * max(ratios)
    deep = jacobi.rational_spectrum(*g.convergents[7])
    cover = irrational_cover(GOLDEN_MEAN, 5, c2)
    ok = cover.intervals.covers(deep)
    return ok, f"fitted C2={c2:.3f}, containment={ok}"


CHECKS = [
    ("hill.wronskian", _check_wronskian),
    ("hill.half_interval", _check_half_interval),
    ("hill.step_doubling", _check_step_doubling),
    ("hill.band_dirichlet_consistency", _check_band_dirichlet),
    ("jacobi.det_equals_tr", _check_det_tr),
    ("jacobi.chambers_theta_independence", _check_chambers),
    ("jacobi.lidskii_bound", _check_lidskii),
    ("jacobi.normalized_trace_identity", _check_trace_identity),
    ("jacobi.banded_vs_dense", _check_banded_vs_dense),
    ("jacobi.measure_decay", _check_measure_decay),
    ("qlambda.symmetry_and_zero", _check_q_symmetry),
    ("qlambda.norm_bound", _check_norm_bound),
    ("dynamics.correction_integral", _check_correction_integral),
    ("dynamics.cover_containment", _check_cover_containment),
    ("loops.rank_dichotomy", _check_rank_dichotomy),
]


def run_all(report=print) -> bool:
    all_ok = True
    for name, fn in CHECKS:
        try:
            ok, detail = fn()
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        all_ok &= ok
        report(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return all_ok
