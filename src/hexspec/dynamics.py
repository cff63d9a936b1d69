"""Transfer-matrix dynamics: Lyapunov exponents from Chambers' relation, complexified
phases and acceleration, and convergent covers of the irrational-flux spectrum."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError
from .flux import Flux, continued_fraction
from .intervals import BandList
from .jacobi import _d_product, rational_spectrum

# The renormalised transfer product squares the entries of its first tree
# level, which are about lambda^2: lambda^4 overflows above |lambda| = 1.16e77.
LE_LAMBDA_MAX = 1e77
# _rational_le holds ~112 bytes per theta sample at its peak (tracemalloc):
# 117 MB at this bound, and one convergent takes ~0.15 s there.
THETA_SAMPLES_MAX = 2 ** 20


@dataclass(frozen=True)
class CocycleConfig:
    """theta_samples: midpoint quadrature nodes in x = q theta; max_n: largest
    convergent denominator q; tolerance: Cauchy test between consecutive ones."""
    flux: Flux
    theta_samples: int = 256
    max_n: int = 2 ** 14
    tolerance: float = 5e-3

    def __post_init__(self):
        if not 64 <= self.theta_samples <= THETA_SAMPLES_MAX:
            raise DomainError(f"theta_samples must be in [64, {THETA_SAMPLES_MAX}]")
        if self.max_n < 1:
            raise DomainError("max_n must be >= 1")
        if not self.tolerance > 0.0:
            raise DomainError(f"tolerance must be > 0, got {self.tolerance}")


@dataclass(frozen=True)
class LyapunovEstimate:
    value: float
    converged: bool
    n_used: int


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


# One exponent takes at most 7 convergents: their denominators grow at least
# as fast as the Fibonacci numbers, so q_{k+7} >= 21 q_k, and its window
# max_n/16 <= q <= max_n spans a factor of 16.  64 entries hold those of the
# last 9 energies, so the epsilons of an acceleration, or of a sweep in
# epsilon, share one product per convergent; an energy scan, which never comes
# back to an energy, keeps no more than 64 small tuples.
_GQ_CACHE_SIZE = 64


@lru_cache(maxsize=_GQ_CACHE_SIZE)
def _gq_scaled(lam: float, p: int, q: int):
    """G_q(lam) = tr D_q(1/(4q)) at flux p/q as a mantissa times e^ls: the
    part of _rational_le that does not depend on epsilon."""
    a, _, _, d, ls = _d_product(lam, 1.0 / (4.0 * q), p / q, q, renorm=True)
    return a + d, float(ls)


def _rational_le(lam: float, p: int, q: int, eps: float, m: int) -> float:
    """Exact exponent at flux p/q, theta shifted by i*eps: (1/q) E_x log rho on
    m midpoint nodes, rho the spectral radius of tr = G_q - 2cos 2 pi z, det =
    2 - 2(-1)^q cos 2 pi z at z = x + i q eps (Chambers).  G_q = tr D_q(1/(4q))
    comes as a mantissa times e^ls, and e^-k scales every term against overflow."""
    g, ls = _gq_scaled(float(lam), p, q)
    k = max(ls, 2.0 * math.pi * q * abs(eps))
    z = (np.arange(m) + 0.5) / m + 1j * q * eps
    two_cos = np.exp(2j * np.pi * z - k) + np.exp(-2j * np.pi * z - k)
    tr = g * math.exp(ls - k) - two_cos
    det = 2.0 * math.exp(-2.0 * k) - (-1) ** q * math.exp(-k) * two_cos
    s = np.sqrt(tr * tr - 4.0 * det)
    rho = 0.5 * np.maximum(np.abs(tr + s), np.abs(tr - s))
    return (k + float(np.mean(np.log(rho)))) / q


def complexified_le(lam: float, flux: Flux, epsilon: float,
                    config: CocycleConfig | None = None) -> LyapunovEstimate:
    """Exponent with theta shifted by i*epsilon: exact at rational flux or at a
    continued fraction ending by q = max_n, else along the convergents with
    max_n/16 <= q <= max_n until two agree within the tolerance (n_used = q)."""
    if not abs(lam) <= LE_LAMBDA_MAX:
        raise DomainError(f"|lambda| must be <= {LE_LAMBDA_MAX:g}, got {lam:g}")
    if config is None:
        config = CocycleConfig(flux=flux)
    m = config.theta_samples
    conv = ([(flux.p, flux.q)] if flux.is_rational else
            [(0, 1)] + [c for c in flux.convergents if c[1] <= config.max_n])
    p, q = conv[-1]
    if (p / q - flux.alpha) % 1.0 == 0.0:
        return LyapunovEstimate(_rational_le(lam, p, q, epsilon, m), True, q)
    prev = None
    for p, q in [c for c in conv if c[1] >= config.max_n // 16] or conv[-1:]:
        cur = _rational_le(lam, p, q, epsilon, m)
        if prev is not None and abs(cur - prev) < config.tolerance:
            return LyapunovEstimate(cur, True, q)
        prev = cur
    return LyapunovEstimate(cur, False, q)


def lyapunov(lam: float, config: CocycleConfig) -> LyapunovEstimate:
    """Lyapunov exponent L(lambda, Phi) of the D-cocycle."""
    return complexified_le(lam, config.flux, 0.0, config)


def acceleration(lam: float, flux: Flux, epsilon: float) -> float:
    """Difference quotient of the complexified exponent in epsilon over a
    step of 0.05, each exponent to a Cauchy tolerance of 1e-3, in units of
    2 pi; quantized at integers away from epsilon = 0."""
    if epsilon == 0.0:
        raise DomainError("acceleration needs epsilon != 0")
    config = CocycleConfig(flux=flux, tolerance=1e-3)
    # one-sided quotient pointing away from 0, so the stencil does not
    # straddle a kink of the piecewise-linear exponent
    step = 0.05 if epsilon > 0 else -0.05
    l0 = complexified_le(lam, flux, epsilon, config).value
    l1 = complexified_le(lam, flux, epsilon + step, config).value
    return (l1 - l0) / (2.0 * math.pi * step)


def irrational_cover(alpha: float, n: int, holder_constant: float) -> CoverEstimate:
    """Cover of the spectrum at irrational flux quantum alpha built from its
    n-th convergent: rational bands inflated by C2 |alpha - p_n/q_n|^(1/2)."""
    if n < 0 or holder_constant < 0:
        raise DomainError(f"a cover needs n >= 0 and holder_constant >= 0, got "
                          f"{n} and {holder_constant}")
    conv = continued_fraction(alpha)
    if len(conv) <= n:
        raise DomainError(f"alpha={alpha} has {len(conv)} convergents, none of index {n}")
    p_n, q_n = conv[n]
    diff = abs(alpha - p_n / q_n)
    radius = holder_constant * math.sqrt(diff)
    cover = rational_spectrum(p_n, q_n).inflated(radius)
    bound = 16.0 * math.pi / (3.0 * q_n) + 2.0 * holder_constant * q_n * math.sqrt(diff)
    return CoverEstimate(n=n, p_n=p_n, q_n=q_n, radius=radius,
                         intervals=cover, bound=bound)


def holder_probe(a: tuple[int, int], b: tuple[int, int]) -> float:
    """sup over Sigma_a of the distance to Sigma_b, over |p_a/q_a - p_b/q_b|^(1/2):
    the alpha-unit ratio that irrational_cover's radius C2 |alpha - p/q|^(1/2)
    bounds.  The sup sits at an edge of Sigma_a or at the midpoint of a gap of
    Sigma_b inside Sigma_a, so only those O(q) points are measured."""
    s1, s2 = rational_spectrum(*a), rational_spectrum(*b)
    m = s2.merged()
    mids = 0.5 * (m.hi[:-1] + m.lo[1:])
    pts = np.concatenate((s1.endpoints(), mids[s1.distance(mids) == 0.0]))
    dalpha = abs(a[0] / a[1] - b[0] / b[1])
    return float(np.max(s2.distance(pts))) / math.sqrt(dalpha) if dalpha > 0 else 0.0


def fitted_holder_constant(convergents) -> float:
    """Hölder constant C2 fitted on convergents p_n/q_n: 1.5 times the largest
    holder_probe ratio over the pairs of consecutive ones from n = 2 on."""
    if len(convergents) < 4:
        raise DomainError(f"fitting C2 needs 4 convergents, got {len(convergents)}")
    return 1.5 * max(holder_probe(a, b) for a, b in zip(convergents[2:], convergents[3:]))
