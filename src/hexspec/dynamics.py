"""Transfer-matrix dynamics: theta-averaged Lyapunov exponents of the D-cocycle,
complexified phases and acceleration quantization, and certified covers of the
irrational-flux spectrum built from continued-fraction convergents."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .flux import Flux, continued_fraction
from .intervals import BandList
from .jacobi import _d_product, _frobenius, rational_spectrum

#: irrational offset of the theta grid, keeps it off the singular lattice
THETA_OFFSET = 1.0 / math.sqrt(5.0)


@dataclass(frozen=True)
class CocycleConfig:
    flux: Flux
    theta_samples: int = 256
    max_n: int = 2 ** 14
    tolerance: float = 5e-3

    def __post_init__(self):
        if self.theta_samples < 64:
            raise DomainError("theta_samples must be >= 64")
        n = self.max_n
        if n < 1 or (n & (n - 1)) != 0:
            raise DomainError("max_n must be a power of 2")


@dataclass(frozen=True)
class LyapunovEstimate:
    value: float
    converged: bool
    n_used: int

    def __float__(self) -> float:
        return self.value


@dataclass(frozen=True)
class CoverEstimate:
    """Cover S_n of the irrational-flux spectrum: the convergent's rational
    spectrum inflated by the Hölder radius."""

    n: int
    p_n: int
    q_n: int
    radius: float
    intervals: BandList
    bound: float


def _le_average(lam: complex, alpha: float, eps: float, n: int, m: int) -> float:
    """(1/n) E_theta log ||D_n(theta + i eps)|| over an m-point theta grid.

    Entries use the analytic continuations c(theta) = 1 + e^{-2 pi i theta}
    and cbar(theta) = 1 + e^{2 pi i theta}; no correction term is needed since
    the mean of log|c| over the circle is exactly zero.
    """
    theta = THETA_OFFSET + np.arange(m) / m + 1j * eps
    a, b, c, d, total = _d_product(lam, theta, alpha, n, renorm=True)
    total += np.log(np.maximum(_frobenius(a, b, c, d), 1e-300))
    return float(np.mean(total)) / n


def complexified_le(
    lam: float, flux: Flux, epsilon: float, config: CocycleConfig | None = None
) -> LyapunovEstimate:
    """Lyapunov exponent of the cocycle with theta shifted by i*epsilon,
    doubling the product length (and theta grid) until stable."""
    if config is None:
        config = CocycleConfig(flux=flux)
    alpha = flux.alpha
    n = max(1024, config.max_n // 16)
    m = config.theta_samples
    prev = _le_average(lam, alpha, epsilon, n, m)
    while n < config.max_n:
        n *= 2
        m *= 2
        cur = _le_average(lam, alpha, epsilon, n, m)
        if abs(cur - prev) < config.tolerance:
            return LyapunovEstimate(cur, True, n)
        prev = cur
    return LyapunovEstimate(prev, False, n)


def lyapunov(lam: float, config: CocycleConfig) -> LyapunovEstimate:
    """theta-averaged Lyapunov exponent L(lambda, Phi) of the D-cocycle."""
    return complexified_le(lam, config.flux, 0.0, config)


def acceleration(
    lam: float,
    flux: Flux,
    epsilon: float,
    h: float = 0.05,
    config: CocycleConfig | None = None,
) -> float:
    """Difference quotient of the complexified exponent in epsilon, in units
    of 2 pi; quantized at integers away from epsilon = 0."""
    if epsilon == 0.0:
        raise DomainError("acceleration needs epsilon != 0")
    if config is None:
        config = CocycleConfig(flux=flux, tolerance=1e-3)
    # one-sided quotient pointing away from 0, so the stencil does not
    # straddle a kink of the piecewise-linear exponent
    step = h if epsilon > 0 else -h
    l0 = complexified_le(lam, flux, epsilon, config).value
    l1 = complexified_le(lam, flux, epsilon + step, config).value
    return (l1 - l0) / (2.0 * math.pi * step)


def irrational_cover(alpha: float, n: int, holder_constant: float) -> CoverEstimate:
    """Cover of the spectrum at irrational flux quantum alpha built from its
    n-th convergent: rational bands inflated by C2 |alpha - p_n/q_n|^(1/2)."""
    conv = continued_fraction(alpha, n + 1)
    if len(conv) <= n:
        raise DomainError(f"alpha={alpha} has no convergent of index {n}")
    p_n, q_n = conv[n]
    diff = abs(alpha - p_n / q_n)
    radius = holder_constant * math.sqrt(diff)
    cover = rational_spectrum(p_n, q_n).inflated(radius).merged()
    bound = 16.0 * math.pi / (3.0 * q_n) + 2.0 * holder_constant * q_n * math.sqrt(diff)
    return CoverEstimate(n=n, p_n=p_n, q_n=q_n, radius=radius,
                         intervals=cover, bound=bound)


def holder_probe(flux1: Flux, flux2: Flux) -> dict:
    """One-sided Hausdorff distance between two exactly computed rational
    spectra, reported together with its ratio to |Phi1 - Phi2|^(1/2)."""
    if not (flux1.is_rational and flux2.is_rational):
        raise DomainError("holder_probe needs two rational fluxes")
    s1 = rational_spectrum(flux1.p, flux1.q)
    s2 = rational_spectrum(flux2.p, flux2.q)
    endpoints = [e for iv in s1.intervals for e in iv]
    sup = max((s2.distance(e) for e in endpoints), default=0.0)
    dphi = abs(flux1.phi - flux2.phi)
    ratio = sup / math.sqrt(dphi) if dphi > 0 else 0.0
    return {
        "flux1": str(flux1),
        "flux2": str(flux2),
        "sup_onesided_distance": sup,
        "ratio": ratio,
    }
