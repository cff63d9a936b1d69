"""Hill equation on one edge: monodromy, discriminant, bands, Dirichlet data.

Everything is driven by the fundamental solutions c and s of
-psi'' + V psi = lambda psi on (0,1) with (c, c')(0) = (1, 0) and
(s, s')(0) = (0, 1); the discriminant is Delta(lambda) = s'(1), which by
evenness of V equals c(1).

Eigenvalues are found by Sturm oscillation counting: the zeros of s on
(0, 1) count the Dirichlet eigenvalues below lambda, and the zeros of c plus
[c(1) c'(1) < 0] count the Neumann ones.  The counts are exact integers, so
bisecting on them finds every eigenvalue, however close to its neighbour.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import DomainError, IntegrationError
from .potentials import PotentialSpec

DEFAULT_STEPS = 4096
EDGE_TOL = 1e-12
# Largest lambda_max the eigenvalue counts are trusted at, for DEFAULT_STEPS
# (it scales with steps**2).  There sqrt(lambda) h = 0.077 rad per step, and
# the RK4 phase error, which grows like its fifth power, stays far below pi.
COUNT_LAMBDA_MAX = 1e5
# Energies of the one counting call that brackets every eigenvalue
_COUNT_GRID = 64


@dataclass(frozen=True)
class MonodromySolution:
    """Values of the fundamental solutions at t=1 for a single energy."""

    lam: float
    c1: float
    c1p: float
    s1: float
    s1p: float
    delta: float
    step_error: float  # |Delta(steps) - Delta(2*steps)|

    @property
    def wronskian(self) -> float:
        return self.c1 * self.s1p - self.c1p * self.s1


@dataclass(frozen=True)
class HillBand:
    index: int  # 1-based
    alpha: float
    beta: float
    monotonicity: str  # "increasing" | "decreasing" (Delta on the interior)


def _rk4_loop(Vn: np.ndarray, lams: np.ndarray, steps: int):
    """RK4 over [0,1] on (u, u')' = (u', (V - lam) u) for both fundamental
    solutions; Vn holds V at step starts and midpoints.  c and s ride in one
    state vector (c first), so each step costs one set of array operations.
    Next to the state it counts the sign changes of c and of s across the
    step nodes, i.e. their zeros in (0, 1]."""
    h = 1.0 / steps
    n = lams.shape[0]
    lam2 = np.concatenate((lams, lams))
    u = np.concatenate((np.ones_like(lams), np.zeros_like(lams)))
    up = np.concatenate((np.zeros_like(lams), np.ones_like(lams)))
    neg = u < 0.0
    zeros = np.zeros(2 * n, dtype=np.int64)
    for i in range(steps):
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


try:  # jit-compiled kernel; the numpy loop above is the fallback
    from numba import njit

    _rk4_loop = njit(cache=True)(_rk4_loop)
except ImportError:  # pragma: no cover
    pass


def _rk4_fundamental(V: PotentialSpec, lams: np.ndarray, steps: int):
    """Integrate c and s for an array of energies of any shape; returns
    (c1, c1p, s1, s1p, zeros of c, zeros of s), each of that shape."""
    h = 1.0 / steps
    # V at step starts and midpoints; nodes are lambda-independent
    t_nodes = np.arange(2 * steps + 1) * (0.5 * h)
    Vn = np.ascontiguousarray(V(t_nodes), dtype=float)
    lams = np.ascontiguousarray(lams, dtype=float)
    out = tuple(x.reshape(lams.shape) for x in _rk4_loop(Vn, lams.ravel(), steps))
    for arr in out:
        if not np.all(np.isfinite(arr)):
            bad = lams[~np.isfinite(arr)][:1]
            raise IntegrationError(f"non-finite state integrating at lambda={bad}")
    return out


def integrate_monodromy(
    V: PotentialSpec, lam: float, steps: int = DEFAULT_STEPS
) -> MonodromySolution:
    """Monodromy data at one energy, with a step-doubling error estimate."""
    if steps < 64:
        raise DomainError("steps must be >= 64")
    lams = np.array([float(lam)])
    c1, c1p, s1, s1p = (x[0] for x in _rk4_fundamental(V, lams, steps)[:4])
    s1p_fine = _rk4_fundamental(V, lams, 2 * steps)[3][0]
    return MonodromySolution(
        lam=float(lam),
        c1=float(c1),
        c1p=float(c1p),
        s1=float(s1),
        s1p=float(s1p_fine),
        delta=float(s1p_fine),
        step_error=abs(float(s1p) - float(s1p_fine)),
    )


def discriminant(V: PotentialSpec, lam: float, steps: int = DEFAULT_STEPS) -> float:
    return integrate_monodromy(V, lam, steps).delta


def discriminant_batch(
    V: PotentialSpec, lams, steps: int = DEFAULT_STEPS
) -> np.ndarray:
    """Delta at many energies in one vectorized integration (no step doubling)."""
    return _rk4_fundamental(V, np.asarray(lams, dtype=float), steps)[3]


# Halvings per integration in _bisect_many.  Without numba the 4096-step
# kernel costs about the same for up to ~63 energies as for one, and more
# beyond; timed at n * (2**L - 1) energies for n = 1, 5 and 11 brackets,
# L = 6 gave the least total kernel time.
_LEVELS = 6
_MAX_HALVINGS = 60


def _bisect_many(f, lo, hi, increasing, xtol, levels=_LEVELS):
    """Bisection on many brackets at once.

    `increasing` says, per bracket or for all, which way f crosses zero.
    Before each halving the bisection stops if no bracket is wider than
    xtol; there are at most 60 halvings, which leave any bracket here a few
    ulp wide.

    One call of f serves `levels` halvings of every bracket.  Each bracket
    is first refined `levels` times by midpoints, computed exactly as the
    halvings compute them, and f maps this table of 2**levels - 1 lambdas
    (one row per midpoint, one column per bracket) to values of the same
    shape.  The halvings are then replayed from the table, so the result
    has the same bits for every `levels`, with `levels` times fewer calls
    of f.  Refinement stops early once no bracket of the table is wider
    than xtol, since no later halving can be asked for.
    """
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    sign = np.where(increasing, 1.0, -1.0)
    cols = np.arange(lo.size)
    mid = 0.5 * (lo + hi)
    halvings = 0
    while halvings < _MAX_HALVINGS and np.max(hi - lo, initial=0.0) > xtol:
        # table holds, level by level, the midpoints the next halvings can
        # ask for, one column per bracket: 1, 2, 4, ... rows, where the
        # halves of row k have their midpoints in rows 2k + 1 and 2k + 2
        ends, table, depth = (lo, hi), mid[None], 1
        while depth < min(levels, _MAX_HALVINGS - halvings):
            finer = np.empty((2 * len(ends) - 1, lo.size))
            finer[::2], finer[1::2] = ends, table[len(ends) - 2:]
            ends = finer
            if np.max(ends[1:] - ends[:-1]) <= xtol:
                break
            table = np.concatenate((table, 0.5 * (ends[:-1] + ends[1:])))
            depth += 1
        below = sign * f(table) < 0.0
        row, go_right = 0, below[0]
        for level in range(1, depth + 1):
            lo = np.where(go_right, mid, lo)
            hi = np.where(go_right, hi, mid)
            mid = 0.5 * (lo + hi)
            halvings += 1
            if level == depth or np.max(hi - lo) <= xtol:
                break
            row = 2 * row + 1 + go_right
            go_right = below[row, cols]
    return mid


@lru_cache(maxsize=16)
def _eigenvalues(V: PotentialSpec, lambda_max: float, steps: int):
    """Neumann and Dirichlet eigenvalues below lambda_max, as two sorted
    tuples.  One call counts at _COUNT_GRID energies, which brackets each
    eigenvalue between two of them; one bisection on "count >= k" then
    refines all brackets at once.  Cached, so the bands and the Dirichlet
    eigenvalues of one window cost one pass."""
    if lambda_max > COUNT_LAMBDA_MAX * (steps / DEFAULT_STEPS) ** 2:
        raise DomainError(f"lambda_max {lambda_max:g} is above the range where "
                          f"{steps} steps count eigenvalues exactly")

    def count(lams):  # the numbers of Neumann and of Dirichlet eigenvalues below
        c1, c1p, _, _, zeros_c, zeros_s = _rk4_fundamental(V, lams, steps)
        return zeros_c + (c1 * c1p < 0.0), zeros_s

    grid = np.linspace(V.min_value - 1.0, lambda_max, _COUNT_GRID)  # from below all
    # the k-th eigenvalue of a kind lies below the first grid energy with a
    # count >= k, and above the grid energy before it
    counts = count(grid)
    ks = [np.arange(1, n[-1] + 1) for n in counts]
    kind = np.repeat([0, 1], [len(k) for k in ks])
    right = np.concatenate([np.searchsorted(n, k) for n, k in zip(counts, ks)])
    k = np.concatenate(ks)

    def above(lams):  # > 0 where the k-th eigenvalue of its kind is below lams
        n_neu, n_dir = count(lams)
        return np.where(kind == 1, n_dir, n_neu) - k + 0.5

    roots = _bisect_many(above, grid[right - 1], grid[right], True, xtol=EDGE_TOL)
    return tuple(roots[kind == 0].tolist()), tuple(roots[kind == 1].tolist())


def hill_bands(
    V: PotentialSpec, lambda_max: float, steps: int = DEFAULT_STEPS
) -> list[HillBand]:
    """All Hill bands [alpha_n, beta_n] with beta_n < lambda_max.

    Band edges satisfy Delta(lambda)^2 = 1, and by the Wronskian plus the
    symmetry c(1) = s'(1) one has Delta^2 - 1 = c'(1) * s(1).  So the edges
    are the Neumann and the Dirichlet eigenvalues, paired two by two in
    sorted order; a closed gap is where one of each coincides.  Delta falls
    on odd bands, rises on even.  Raises DomainError for lambda_max above
    COUNT_LAMBDA_MAX (at the default steps).
    """
    neumann, dirichlet = _eigenvalues(V, float(lambda_max), steps)
    edges = sorted(neumann + dirichlet)
    return [
        HillBand(index=k + 1, alpha=edges[2 * k], beta=edges[2 * k + 1],
                 monotonicity="increasing" if k % 2 else "decreasing")
        for k in range(len(edges) // 2)
    ]


def bands_window(V: PotentialSpec, n_bands: int) -> float:
    """An energy above the first n_bands Hill bands: by comparison with the
    constant potential max V, the n-th Neumann and Dirichlet eigenvalues are
    at most n^2 pi^2 + max V."""
    return n_bands**2 * np.pi**2 + V.max_value + 1.0


def hill_bands_first_n(
    V: PotentialSpec, n_bands: int, steps: int = DEFAULT_STEPS
) -> list[HillBand]:
    """First n Hill bands, from one pass up to bands_window(V, n_bands)."""
    return hill_bands(V, bands_window(V, n_bands), steps)[:n_bands]


def dirichlet_eigenvalues(
    V: PotentialSpec, lambda_max: float, steps: int = DEFAULT_STEPS
) -> list[float]:
    """Dirichlet eigenvalues (the roots of s_lambda(1)) below lambda_max,
    every one of them, from the same counting pass as hill_bands."""
    return list(_eigenvalues(V, float(lambda_max), steps)[1])


def invert_discriminant_on_band(
    V: PotentialSpec, band: HillBand, w: float, steps: int = DEFAULT_STEPS
) -> float:
    """The unique lambda in the band with Delta(lambda) = w, |w| <= 1."""
    if not -1.0 <= w <= 1.0:
        raise DomainError(f"discriminant target {w} outside [-1, 1]")
    fa, fb = discriminant_batch(V, [band.alpha, band.beta], steps) - w
    if fa * fb >= 0.0:
        # w at (or numerically beyond) an edge value
        return band.alpha if abs(fa) <= abs(fb) else band.beta
    increasing = band.monotonicity == "increasing"
    return float(_bisect_many(lambda lams: discriminant_batch(V, lams, steps) - w,
                              [band.alpha], [band.beta], increasing, xtol=1e-13)[0])


class BandInverter:
    """Fast vectorized inverse of Delta on one Hill band.

    Delta is sampled densely on the band and modeled by a cubic spline
    (Delta is entire in lambda, so the model is accurate to ~1e-11);
    targets are then inverted by vectorized bisection on the spline.
    """

    def __init__(self, V: PotentialSpec, band: HillBand, n_samples: int = 2049,
                 steps: int = DEFAULT_STEPS):
        self.band = band
        lams = np.linspace(band.alpha, band.beta, n_samples)
        vals = discriminant_batch(V, lams, steps)
        self._spline = CubicSpline(lams, vals)
        self._increasing = band.monotonicity == "increasing"
        self._w_alpha = -1.0 if self._increasing else 1.0  # Delta(alpha) = -Delta(beta)

    def __call__(self, w):
        """Invert an array of targets in [-1, 1]; returns lambdas in the band."""
        w = np.atleast_1d(np.asarray(w, dtype=float))
        if np.any(w < -1.0 - 1e-12) or np.any(w > 1.0 + 1e-12):
            raise DomainError("discriminant target outside [-1, 1]")
        w = np.clip(w, -1.0, 1.0)
        lo = np.full(w.size, self.band.alpha)
        hi = np.full(w.size, self.band.beta)
        # xtol 0: always the full 60 halvings.  One level per call of the
        # spline: its cost grows with the number of points, so a table of
        # 2**L - 1 points per target would cost more than it saves.
        lam = _bisect_many(lambda lam: self._spline(lam) - w.ravel(), lo, hi,
                           self._increasing, xtol=0.0, levels=1)
        # Delta = +-1 at the edges by definition; at a closed gap, where
        # Delta' = 0, a model error of 1e-15 would move that crossing by 1e-7
        at_edge = [w.ravel() == self._w_alpha, w.ravel() == -self._w_alpha]
        lam = np.select(at_edge, [self.band.alpha, self.band.beta], lam)
        return lam.reshape(w.shape)
