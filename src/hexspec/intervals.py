"""Band sets: sorted closed intervals with measure accounting, held as two
read-only float64 arrays, the left ends `lo` and the right ends `hi`.  The
spectral routines give bands that may touch (share an endpoint) but never
overlap, so both arrays ascend; touching bands are kept separate -- band
counting matters -- and only merged on demand."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MERGE_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class BandList:
    """Closed intervals [lo[i], hi[i]], lo[i] <= hi[i]; `intervals` views them as tuples."""

    lo: np.ndarray = ()
    hi: np.ndarray = ()

    def __post_init__(self):
        lo, hi = np.array(self.lo, dtype=float), np.array(self.hi, dtype=float)
        if lo.ndim != 1 or lo.shape != hi.shape:
            raise ValueError(f"lo and hi must be 1-D of one length, not {lo.shape}, {hi.shape}")
        if not (lo <= hi).all():  # a NaN end fails lo <= hi too
            i = np.flatnonzero(~(lo <= hi))[0]
            raise ValueError(f"inverted or NaN interval [{lo[i]}, {hi[i]}]")
        lo.flags.writeable = hi.flags.writeable = False
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def intervals(self) -> tuple[tuple[float, float], ...]:
        return tuple(zip(self.lo.tolist(), self.hi.tolist()))

    def __len__(self):
        return len(self.lo)

    @property
    def measure(self) -> float:
        """Total length, counting overlapping stretches once, summed in order."""
        m = self.merged()
        return float(np.cumsum(m.hi - m.lo)[-1]) if len(m) else 0.0

    def merged(self) -> "BandList":
        """Coalesce intervals whose gap to the reach of those before is <= MERGE_TOL."""
        if not len(self):
            return self
        reach = np.maximum.accumulate(self.hi)
        starts = np.flatnonzero(np.concatenate(([True], self.lo[1:] > reach[:-1] + MERGE_TOL)))
        return BandList(self.lo[starts], np.maximum.reduceat(self.hi, starts))

    def inflated(self, radius: float) -> "BandList":
        """Each interval grown by radius on both sides, then merged."""
        if radius < 0:
            raise ValueError("radius must be >= 0")
        return BandList(self.lo - radius, self.hi + radius).merged()

    def contains(self, x: float, tol: float = 0.0) -> bool:
        return bool(np.any((self.lo - tol <= x) & (x <= self.hi + tol)))

    def covers(self, other: "BandList") -> bool:
        """True if every interval of `other` lies inside some merged interval
        of self, to MERGE_TOL: the last to start left of it, as the merged hi ascend."""
        mine, theirs = self.merged(), other.merged()
        i = np.searchsorted(mine.lo - MERGE_TOL, theirs.lo, side="right") - 1
        # i = -1 (none starts left of it) reads the -inf appended last
        return bool(np.all(theirs.hi <= np.append(mine.hi, -np.inf)[i] + MERGE_TOL))

    def distance(self, x):
        """Distance from the point x, or from each point of an array x, to
        the union of intervals: from the furthest reach of the intervals
        starting at or left of x, and from the start of the next one."""
        x = np.asarray(x, dtype=float)
        if not len(self):
            return np.full(x.shape, np.inf)[()]
        reach = np.maximum.accumulate(self.hi)
        i = np.searchsorted(self.lo, x, side="right")
        left = np.where(i > 0, x - reach[np.maximum(i - 1, 0)], np.inf)
        right = np.where(i < len(self), self.lo[np.minimum(i, len(self) - 1)] - x, np.inf)
        return np.maximum(np.minimum(left, right), 0.0)[()]

    def endpoints(self) -> np.ndarray:
        return np.stack((self.lo, self.hi), axis=1).ravel()
