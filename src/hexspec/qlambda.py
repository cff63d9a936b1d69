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
    mirror image, with {0} between the halves unless the lowest band reaches
    it.  Sigma's bands never overlap, so both halves come out sorted.
    """
    lo, hi = sigma_phi.lo, sigma_phi.hi
    if len(lo) and lo[0] < -3.0 - 1e-12:
        raise DomainError(f"band [{lo[0]},{hi[0]}] below -3: negative radicand")
    r_lo, r_hi = np.sqrt(np.maximum(np.stack((lo, hi)) / 9.0 + 1.0 / 3.0, 0.0))
    zero = [0.0] if r_lo.size == 0 or r_lo[0] > 0.0 else []  # r_lo ascends from >= 0
    return QSpectrum(bands=BandList(np.concatenate((-r_hi[::-1], zero, r_lo)),
                                    np.concatenate((-r_lo[::-1], zero, r_hi))))


def q_norm_bound(phi: float) -> float:
    """Upper bound sqrt(1/3 + c_Phi/9) on the norm of Q_Lambda(Phi), where
    c_Phi^2 = 12 sup_theta f(theta), f = sin^2 pi(theta - a) + sin^2 pi theta
    + cos^2 2 pi theta with a = Phi/2pi; strictly below 1 unless Phi is a
    multiple of 2 pi.  The sup is exact: f' = 0 exactly where
    z = e^{2 pi i theta} solves 2z^4 - (w+1)z^3 + (conj(w)+1)z - 2 = 0 with
    w = e^{-2 pi i a}, so it is the largest f at the angles of the four roots."""
    a = phi / (2.0 * math.pi)
    w = complex(math.cos(phi), -math.sin(phi))
    z = np.roots([2.0, -(w + 1.0), 0.0, w.conjugate() + 1.0, -2.0])
    th = np.angle(z) / (2.0 * math.pi)
    sup = np.max(np.sin(np.pi * (th - a)) ** 2 + np.sin(np.pi * th) ** 2
                 + np.cos(2.0 * np.pi * th) ** 2)
    return math.sqrt(1.0 / 3.0 + math.sqrt(12.0 * sup) / 9.0)
