"""Sorted lists of closed intervals with measure accounting.

Bands coming out of the spectral routines may touch (share an endpoint)
but never overlap.  Touching bands are kept separate -- band counting
matters -- and only merged on demand.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

MERGE_TOL = 1e-12


@dataclass(frozen=True)
class BandList:
    """Sorted list of closed intervals [lo, hi], non-overlapping up to tolerance."""

    intervals: tuple[tuple[float, float], ...] = field(default_factory=tuple)

    @staticmethod
    def from_pairs(pairs) -> "BandList":
        ivs = sorted((float(lo), float(hi)) for lo, hi in pairs)
        for lo, hi in ivs:
            if hi < lo - MERGE_TOL:
                raise ValueError(f"inverted interval [{lo}, {hi}]")
        return BandList(tuple((lo, max(lo, hi)) for lo, hi in ivs))

    def __len__(self):
        return len(self.intervals)

    def __iter__(self):
        return iter(self.intervals)

    @property
    def measure(self) -> float:
        """Total length, counting overlapping stretches once."""
        return sum(hi - lo for lo, hi in self.merged())

    def merged(self, tol: float = MERGE_TOL) -> "BandList":
        """Coalesce intervals whose gap is <= tol."""
        if not self.intervals:
            return self
        out = [list(self.intervals[0])]
        for lo, hi in self.intervals[1:]:
            if lo <= out[-1][1] + tol:
                out[-1][1] = max(out[-1][1], hi)
            else:
                out.append([lo, hi])
        return BandList(tuple((lo, hi) for lo, hi in out))

    def inflated(self, radius: float) -> "BandList":
        """Each interval grown by radius on both sides, then merged."""
        if radius < 0:
            raise ValueError("radius must be >= 0")
        grown = BandList(tuple((lo - radius, hi + radius) for lo, hi in self.intervals))
        return grown.merged()

    def contains(self, x: float, tol: float = 0.0) -> bool:
        return any(lo - tol <= x <= hi + tol for lo, hi in self.intervals)

    def covers(self, other: "BandList", tol: float = 1e-12) -> bool:
        """True if every interval of `other` lies inside some merged interval of self."""
        mine = self.merged().intervals
        for lo, hi in other.merged().intervals:
            if not any(mlo - tol <= lo and hi <= mhi + tol for mlo, mhi in mine):
                return False
        return True

    def distance(self, x):
        """Distance from the point x, or from each point of an array x, to
        the union of intervals: from the furthest reach of the intervals
        starting at or left of x, and from the start of the next one."""
        x = np.asarray(x, dtype=float)
        if not self.intervals:
            return np.full(x.shape, np.inf)[()]
        iv = np.array(self.intervals)
        reach = np.maximum.accumulate(iv[:, 1])
        i = np.searchsorted(iv[:, 0], x, side="right")
        left = np.where(i > 0, x - reach[np.maximum(i - 1, 0)], np.inf)
        right = np.where(i < len(iv), iv[np.minimum(i, len(iv) - 1), 0] - x, np.inf)
        return np.maximum(np.minimum(left, right), 0.0)[()]

    def endpoints(self) -> np.ndarray:
        return np.array([e for iv in self.intervals for e in iv])
