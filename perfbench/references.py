"""Independent references for the benchmark's output checks.

Nothing here imports hexspec: every quantity is recomputed from the model
by a different method than the program uses.

- Hill data by Hill's method: eigenvalues of a truncated Fourier matrix at
  Floquet angle kappa (Delta = cos kappa there), and a sine-basis matrix for
  the Dirichlet problem.  The program integrates the ODE with RK4 instead.
- Sigma_{p/q} by the Bloch matrix of the reduced Jacobi operator, built with
  the complex coefficients c(theta) = 1 + exp(-2 pi i theta) as the paper
  writes them (the program uses a gauge-transformed real block).
- Lyapunov exponents by a renormalised transfer product on a different theta
  grid and with a different renormalisation schedule.
- Interval sets by plain sorted lists of pairs.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq

# ---------------------------------------------------------------- Hill's method


def fourier_coefficients(V, n_modes: int, n_grid: int = 1024) -> np.ndarray:
    """V_hat[k] = int_0^1 V(t) exp(-2 pi i k t) dt for |k| <= 2 n_modes, by
    the periodic trapezoid rule (spectrally accurate for smooth periodic V).
    Index k is stored at position k + 2 n_modes."""
    t = np.arange(n_grid) / n_grid
    vals = np.asarray(V(t), dtype=float)
    ks = np.arange(-2 * n_modes, 2 * n_modes + 1)
    return np.exp(-2j * np.pi * np.outer(ks, t)) @ vals / n_grid


class HillFourier:
    """Floquet eigenvalues of -psi'' + V psi on the line, V 1-periodic.

    In the basis exp(i (2 pi n + kappa) t), |n| <= n_modes, the operator at
    Floquet angle kappa is diag((2 pi n + kappa)^2) + [V_hat(n - m)].  Its
    k-th eigenvalue E_k(kappa) lies in Hill band k and satisfies
    Delta(E_k(kappa)) = cos(kappa).
    """

    def __init__(self, V, n_modes: int = 12):
        self.n = np.arange(-n_modes, n_modes + 1)
        vhat = fourier_coefficients(V, n_modes)
        idx = self.n[:, None] - self.n[None, :] + 2 * n_modes
        self.vmat = vhat[idx]

    def eigenvalues(self, kappa: float) -> np.ndarray:
        H = self.vmat + np.diag((2.0 * np.pi * self.n + kappa) ** 2)
        return np.linalg.eigvalsh(H)

    def bands(self, n_bands: int) -> list[tuple[float, float]]:
        """Band k is [e_{2k-2}, e_{2k-1}] of the sorted periodic (kappa = 0)
        and antiperiodic (kappa = pi) eigenvalues together."""
        e = np.sort(np.concatenate([self.eigenvalues(0.0), self.eigenvalues(np.pi)]))
        return [(float(e[2 * k]), float(e[2 * k + 1])) for k in range(n_bands)]

    def dirac_points(self, n_bands: int) -> list[float]:
        """Delta = 0, i.e. kappa = pi/2, once per band."""
        return [float(x) for x in self.eigenvalues(0.5 * np.pi)[:n_bands]]

    def delta(self, lam: float, band: int) -> float:
        """Delta(lam) for lam in Hill band `band` (1-based): solve
        E_band(kappa) = lam on the monotone branch kappa in [0, pi]."""
        f = lambda kappa: self.eigenvalues(kappa)[band - 1] - lam
        f0, fpi = f(0.0), f(np.pi)
        if f0 * fpi > 0.0:  # lam at a band edge, up to rounding
            return 1.0 if abs(f0) < abs(fpi) else -1.0
        return math.cos(brentq(f, 0.0, np.pi, xtol=1e-15))


def dirichlet_eigenvalues(V, n: int, n_basis: int = 48, n_quad: int = 400) -> list[float]:
    """First n Dirichlet eigenvalues on (0, 1) in the basis sqrt(2) sin(j pi t):
    H_jk = (j pi)^2 delta_jk + 2 int_0^1 V sin(j pi t) sin(k pi t) dt, the
    integral by Gauss-Legendre quadrature."""
    x, w = np.polynomial.legendre.leggauss(n_quad)
    t, w = 0.5 * (x + 1.0), 0.5 * w
    j = np.arange(1, n_basis + 1)
    S = np.sin(np.pi * np.outer(j, t))
    H = 2.0 * (S * (w * np.asarray(V(t), dtype=float))) @ S.T
    H += np.diag((j * np.pi) ** 2)
    return [float(x) for x in np.linalg.eigvalsh(H)[:n]]


# ---------------------------------------------------------- V = 0 closed forms


def free_band(k: int) -> tuple[float, float]:
    return ((k - 1) * math.pi) ** 2, (k * math.pi) ** 2


def free_dirichlet(k: int) -> float:
    return (k * math.pi) ** 2


def free_dirac(k: int) -> float:
    return ((k - 0.5) * math.pi) ** 2


def free_delta(lam: float) -> float:
    """Delta(lam) = cos(sqrt(lam)) for V = 0 (cosh for lam < 0)."""
    if lam >= 0.0:
        return math.cos(math.sqrt(lam))
    return math.cosh(math.sqrt(-lam))


# ------------------------------------------------------ reduced Jacobi operator


def coeff_c(theta):
    return 1.0 + np.exp(-2j * np.pi * theta)


def bloch_matrix(p: int, q: int, theta: float, nu: float) -> np.ndarray:
    """q x q Bloch block of (H psi)_n = c(t_n) psi_{n+1} + conj(c(t_{n-1}))
    psi_{n-1} + 2 cos(2 pi t_n) psi_n, t_n = theta + n p/q, under
    psi_{n+q} = exp(2 pi i nu) psi_n.  Sigma_{p/q} is the union of its
    spectra over theta and nu."""
    tn = theta + np.arange(q) * (p / q)
    H = np.diag(2.0 * np.cos(2.0 * np.pi * tn)).astype(complex)
    c = coeff_c(tn)
    for j in range(q - 1):
        H[j, j + 1] += c[j]
        H[j + 1, j] += np.conj(c[j])
    corner = c[q - 1] * np.exp(2j * np.pi * nu)
    H[q - 1, 0] += corner
    H[0, q - 1] += np.conj(corner)
    return H


def bloch_eigenvalues(p: int, q: int, theta: float, nu: float) -> np.ndarray:
    return np.linalg.eigvalsh(bloch_matrix(p, q, theta, nu))


def sigma_measure_bound(q: int) -> float:
    """|Sigma_{p/q}| < 16 pi / (3 q)."""
    return 16.0 * math.pi / (3.0 * q)


def q_measure_bound(q: int) -> float:
    """Bound on |sigma(Q)| implied by |Sigma| < 16 pi/(3q).  The positive half
    of sigma(Q) is f(Sigma) with f(x) = sqrt((x + 3)/9) concave and increasing
    on [-3, inf), so |f(A)| <= f(-3 + |A|) - f(-3) = sqrt(|A|/9); the negative
    half is its mirror image."""
    return 2.0 * math.sqrt(sigma_measure_bound(q) / 9.0)


# ----------------------------------------------------------------- intervals


def merge(pairs, tol: float = 0.0) -> list[tuple[float, float]]:
    out: list[list[float]] = []
    for lo, hi in sorted(pairs):
        if out and lo <= out[-1][1] + tol:
            out[-1][1] = max(out[-1][1], hi)
        else:
            out.append([lo, hi])
    return [(lo, hi) for lo, hi in out]


def measure(pairs) -> float:
    return sum(hi - lo for lo, hi in merge(pairs))


def contains(pairs, x: float, tol: float) -> bool:
    return any(lo - tol <= x <= hi + tol for lo, hi in pairs)


def covers(outer, inner, tol: float = 1e-12) -> bool:
    """Every merged interval of inner lies inside one merged interval of outer."""
    mo = merge(outer)
    return all(any(a - tol <= lo and hi <= b + tol for a, b in mo)
               for lo, hi in merge(inner))


def inflate(pairs, radius: float) -> list[tuple[float, float]]:
    return merge([(lo - radius, hi + radius) for lo, hi in pairs])


# ----------------------------------------------------------- Lyapunov exponent


def lyapunov_product(lam: float, alpha: float, n: int, m: int, offset: float) -> float:
    """(1/n) mean over theta_j = offset + j/m of log ||D_n(theta_j)||_F, with
    D(theta) = [[lam - 2 cos 2 pi theta, -conj(c(theta - alpha))], [c(theta), 0]]
    and the running product renormalised at every step."""
    theta = offset + np.arange(m) / m
    M = np.zeros((m, 2, 2), dtype=complex)
    M[:, 0, 0] = M[:, 1, 1] = 1.0
    log_norm = np.zeros(m)
    for j in range(n):
        th = theta + j * alpha
        D = np.empty((m, 2, 2), dtype=complex)
        D[:, 0, 0] = lam - 2.0 * np.cos(2.0 * np.pi * th)
        D[:, 0, 1] = -np.conj(coeff_c(th - alpha))
        D[:, 1, 0] = coeff_c(th)
        D[:, 1, 1] = 0.0
        M = D @ M
        s = np.sqrt(np.sum(np.abs(M) ** 2, axis=(1, 2)))
        log_norm += np.log(s)
        M /= s[:, None, None]
    return float(np.mean(log_norm)) / n
