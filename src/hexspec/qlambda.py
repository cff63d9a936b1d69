"""Spectrum of the two-dimensional tight-binding operator Q_Lambda(Phi),
obtained from the reduced one-dimensional spectrum Sigma_Phi through the exact
set map sigma(Q) = +-sqrt(Sigma/9 + 1/3) union {0}, plus its norm bound."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .intervals import BandList


@dataclass(frozen=True)
class QSpectrum:
    """Band structure of Q_Lambda(Phi); always negation-symmetric with 0."""

    bands: BandList

    @property
    def measure(self) -> float:
        return self.bands.measure


def q_spectrum(sigma_phi: BandList) -> QSpectrum:
    """Map the reduced spectrum through x -> sqrt(x/9 + 1/3) and reflect.

    Each input band [a,b] lands on [sqrt(a/9+1/3), sqrt(b/9+1/3)] and its
    mirror image; {0} is always adjoined.
    """
    pos: list[tuple[float, float]] = []
    for a, b in sigma_phi.intervals:
        if a < -3.0 - 1e-12:
            raise DomainError(f"band [{a},{b}] below -3: negative radicand")
        ra = math.sqrt(max(a / 9.0 + 1.0 / 3.0, 0.0))
        rb = math.sqrt(max(b / 9.0 + 1.0 / 3.0, 0.0))
        pos.append((ra, rb))
    intervals = [(-hi, -lo) for lo, hi in reversed(pos)]
    intervals.extend(pos)
    if not any(lo <= 0.0 <= hi for lo, hi in intervals):
        intervals.append((0.0, 0.0))
    return QSpectrum(bands=BandList.from_pairs(intervals))


def q_norm_bound(phi: float, grid: int = 100_000) -> float:
    """Upper bound sqrt(1/3 + c_Phi/9) on the norm of Q_Lambda(Phi), where
    c_Phi^2 = 12 sup_theta (sin^2 pi(theta - Phi/2pi) + sin^2 pi theta
    + cos^2 2 pi theta); strictly below 1 unless Phi is a multiple of 2 pi."""
    a = phi / (2.0 * math.pi)

    def f(theta):
        return (
            np.sin(np.pi * (theta - a)) ** 2
            + np.sin(np.pi * theta) ** 2
            + np.cos(2.0 * np.pi * theta) ** 2
        )

    th = np.linspace(0.0, 1.0, grid, endpoint=False)
    vals = f(th)
    k = int(np.argmax(vals))
    # golden-section refinement around the best grid point
    lo, hi = th[k] - 1.0 / grid, th[k] + 1.0 / grid
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = f(x1), f(x2)
    for _ in range(80):
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = f(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = f(x1)
    sup = max(float(np.max(vals)), float(f1), float(f2))
    c_phi = math.sqrt(12.0 * sup)
    return math.sqrt(1.0 / 3.0 + c_phi / 9.0)
