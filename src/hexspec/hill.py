"""Hill equation on one edge: monodromy, discriminant, bands, Dirichlet data.

Everything is driven by the fundamental solutions c and s of
-psi'' + V psi = lambda psi with (c, c')(0) = (1, 0) and (s, s')(0) = (0, 1);
the discriminant is Delta(lambda) = c(1) = s'(1).

V is even about 1/2, so c and s are integrated over [0, 1/2] only.  With
M(t) = [[c, s], [c', s']] and R = diag(1, -1), the reflection t -> 1 - t
gives M(1) = R M(1/2)^-1 R M(1/2); from the values at 1/2,
Delta = c s' + s c', s(1) = 2 s s' and c'(1) = 2 c c'.

The integrator is RK4 at h = 1/steps.  On this linear system an RK4 step
is a 2x2 matrix, a polynomial in V - lambda at the step's start, midpoint
and end, so the half run is a product of step matrices: built for many
steps and energies at once, multiplied into blocks of 16 steps by a
pairwise tree, and the blocks applied in order.

Eigenvalues are found by Sturm oscillation counting on the same half run.
An eigenfunction on [0, 1] is odd or even about 1/2, i.e. an eigenfunction
on [0, 1/2] with the Dirichlet or the Neumann condition at 1/2.  Below
lambda, the Dirichlet eigenvalues with odd eigenfunctions number the zeros
of s on (0, 1/2], and those with even ones as many, plus one where the
Prufer angle of s at 1/2 is past the next pi/2 + k pi, i.e. s s' < 0.
So the Dirichlet count is 2 #zeros(s) + [s s' < 0],
and the Neumann count 2 #zeros(c) + [c c' < 0], both at 1/2.  Zeros of s'
or c' do not count: where V > lambda the angle crosses pi/2 backwards.
The counts are exact integers, so brackets cut on them find every
eigenvalue, however close to its neighbour.  The k-th of a kind is the
midpoint of the last cell of a bisection on "count >= k" over one dyadic
grid, so its bits do not depend on the window.  A bracket halves on the
counts until it holds one eigenvalue of its kind and is at most 2^-4 wide;
then a secant on its ends through c'(1) (Neumann) or s(1) (Dirichlet)
picks a grid cell, and the counts at both cell ends, never the sign, move
the ends, so the bracket lands on the bisection's own cell: the same bits
in 22 kernel calls instead of 49 (V = 0, 5 bands).  A round that leaves
over a quarter of the bracket is followed by a halving.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import Chebyshev

from .errors import DomainError, IntegrationError
from .potentials import PotentialSpec

DEFAULT_STEPS = 4096
EDGE_TOL = 1e-12
# Largest lambda_max the eigenvalue counts are trusted at, for DEFAULT_STEPS
# (it scales with steps**2).  There sqrt(lambda) h = 0.077 rad per step, and
# the RK4 phase error, which grows like its fifth power, stays far below pi.
# The half-interval run keeps h = 1/steps, so this holds for it unchanged.
# Zeros are counted as sign changes at the nodes of 16-step blocks, which is
# exact while a block holds at most one zero of c or s, i.e. while
# 16 h sqrt(lambda - min V) < pi: up to lambda - min V = 6.5e5 at 4096
# steps, 6.5 times this bound, and the ratio does not depend on steps.
COUNT_LAMBDA_MAX = 1e5
# Steps per block of the kernel's step-matrix product, and elements per
# array in one chunk of steps x energies
_BLOCK = 16
_CHUNK = 2**14


@dataclass(frozen=True)
class MonodromySolution:
    """Values of the fundamental solutions at t=1: floats for one energy,
    arrays of its shape for an array of energies."""

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
    index: int  # 1-based; Delta falls on odd bands, rises on even ones
    alpha: float
    beta: float


def _step_matrices(Vn: np.ndarray, lams: np.ndarray, h: float):
    """E = P - I for each RK4 step P over Vn (V at step starts and midpoints)
    and each energy: four arrays (E00, E01, E10, E11) of shape
    (steps, energies).  With w0, wm, w1 = V - lam at the step's start,
    midpoint and end,
        E00 = h^2/6 (w0 + 2 wm) + h^4/24 w0 wm,   E01 = h + h^3/6 wm,
        E10 = h/6 (w0 + 4 wm + w1 + h^2/2 wm (w0 + w1)),
        E11 = h^2/6 (2 wm + w1) + h^4/24 w1 wm."""
    wn = Vn[::2, None] - lams
    wm = Vn[1::2, None] - lams
    w0, w1 = wn[:-1], wn[1:]
    a, b = h * h / 6.0, h**4 / 24.0
    return (a * (w0 + 2.0 * wm) + b * (w0 * wm),
            h + (h**3 / 6.0) * wm,
            (h / 6.0) * (w0 + 4.0 * wm + w1 + (h * h / 2.0) * wm * (w0 + w1)),
            a * (2.0 * wm + w1) + b * (w1 * wm))


def _block_products(E):
    """Multiply consecutive steps I + E into blocks of _BLOCK steps by a
    pairwise tree, (I + Y)(I + X) = I + (X + Y + Y X) for X before Y, kept
    in the I + E form, which holds the low bits of matrices near I."""
    for _ in range(_BLOCK.bit_length() - 1):
        x00, x01, x10, x11 = (e[0::2] for e in E)
        y00, y01, y10, y11 = (e[1::2] for e in E)
        E = (x00 + y00 + (y00 * x00 + y01 * x10),
             x01 + y01 + (y00 * x01 + y01 * x11),
             x10 + y10 + (y10 * x00 + y11 * x10),
             x11 + y11 + (y10 * x01 + y11 * x11))
    return E


def _rk4_loop(Vn: np.ndarray, lams: np.ndarray, steps: int):
    """RK4 at step h = 1/steps on (u, u')' = (u', (V - lam) u) for both
    fundamental solutions, over the (len(Vn) - 1) / 2 steps that Vn spans:
    Vn holds V at step starts and midpoints from t = 0.  On this linear
    system an RK4 step is the 2x2 matrix I + E, E a polynomial in V - lam at
    the step's start, midpoint and end (_step_matrices), so the run is their
    product.  For chunks of about _CHUNK elements the steps are built at
    once and multiplied into blocks of _BLOCK steps (_block_products); a last
    partial block is padded with E = 0, which is exact.  The blocks are then
    applied in order to (c, c') and (s, s'), and the sign changes of c and s
    across the block nodes count their zeros in (0, t_end]: a block holds at
    most one zero (COUNT_LAMBDA_MAX).  Chunks hold whole blocks, so an
    energy gets the same bits in any batch."""
    h = 1.0 / steps
    n = lams.shape[0]
    m = (Vn.shape[0] - 1) // 2
    chunk = _BLOCK * max(1, _CHUNK // (_BLOCK * max(n, 1)))  # steps per chunk
    u = np.stack((np.ones_like(lams), np.zeros_like(lams)))  # c, s
    up = np.stack((np.zeros_like(lams), np.ones_like(lams)))
    neg = u < 0.0
    zeros = np.zeros((2, n), dtype=np.int64)
    for i in range(0, m, chunk):
        E = _step_matrices(Vn[2 * i:2 * min(m, i + chunk) + 1], lams, h)
        pad = -E[0].shape[0] % _BLOCK
        if pad:
            E = tuple(np.concatenate((e, np.zeros((pad, n)))) for e in E)
        for e00, e01, e10, e11 in zip(*_block_products(E)):
            u, up = u + (e00 * u + e01 * up), up + (e10 * u + e11 * up)
            now = u < 0.0
            zeros += now != neg
            neg = now
    return u[0], up[0], u[1], up[1], zeros[0], zeros[1]


def _rk4_fundamental(V: PotentialSpec, lams: np.ndarray, steps: int):
    """c and s at t = 1 for an array of energies of any shape, from one run
    over [0, 1/2] at h = 1/steps continued by the reflection (module
    docstring); returns (c1, c1p, s1, s1p, Neumann count, Dirichlet count),
    the counts being the eigenvalues below each energy, each of that shape.
    Raises DomainError unless steps is even and >= 2, so the run ends at 1/2."""
    if steps < 2 or steps % 2:
        raise DomainError(f"steps must be even and >= 2, got {steps}")
    # V at step starts and midpoints of [0, 1/2]; nodes are lambda-independent
    t_nodes = np.arange(steps + 1) * (0.5 / steps)
    Vn = np.ascontiguousarray(V(t_nodes), dtype=float)
    lams = np.asarray(lams, dtype=float)
    c, cp, s, sp, zeros_c, zeros_s = _rk4_loop(Vn, lams.ravel(), steps)
    delta = c * sp + s * cp
    out = (delta, 2.0 * c * cp, 2.0 * s * sp, delta,
           2 * zeros_c + (c * cp < 0.0), 2 * zeros_s + (s * sp < 0.0))
    out = tuple(x.reshape(lams.shape) for x in out)
    for arr in out:
        if not np.all(np.isfinite(arr)):
            bad = lams[~np.isfinite(arr)][:1]
            raise IntegrationError(f"non-finite state integrating at lambda={bad}")
    return out


def integrate_monodromy(V: PotentialSpec, lam) -> MonodromySolution:
    """Monodromy data at one energy or an array of them, all from the run at
    DEFAULT_STEPS that every Hill answer uses, with the step-doubling error
    against a run at 2 * DEFAULT_STEPS as its error bar."""
    lams = np.asarray(lam, dtype=float)
    c1, c1p, s1, s1p = _rk4_fundamental(V, lams, DEFAULT_STEPS)[:4]
    fine = discriminant_batch(V, lams, 2 * DEFAULT_STEPS)
    fields = (lams, c1, c1p, s1, s1p, s1p, np.abs(s1p - fine))
    if lams.ndim == 0:
        fields = tuple(x.item() for x in fields)
    return MonodromySolution(*fields)


def discriminant_batch(
    V: PotentialSpec, lams, steps: int = DEFAULT_STEPS
) -> np.ndarray:
    """Delta at one energy or an array of them, of their shape, from one
    vectorized run; at DEFAULT_STEPS it is the Delta that bisects the band
    edges, builds the inverter's model and fills integrate_monodromy."""
    return _rk4_fundamental(V, np.asarray(lams, dtype=float), steps)[3]


_MAX_HALVINGS = 60


def _bisect_many(f, lo, hi, increasing, xtol):
    """Bisection on many brackets at once; returns the midpoints of the
    final brackets.

    `increasing` says, per bracket or for all, which way f crosses zero.
    Each call of f maps the midpoints of all brackets to values of their
    shape, and each bracket keeps the half where f changes sign.  A bracket
    within xtol stops halving, so its result does not depend on the others;
    all stop after 60 halvings, which leave any bracket here a few ulp wide.
    """
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    sign = np.where(increasing, 1.0, -1.0)
    for _ in range(_MAX_HALVINGS):
        live = hi - lo > xtol
        if not live.any():
            break
        mid = 0.5 * (lo + hi)
        below = sign * f(mid) < 0.0
        lo, hi = np.where(live & below, mid, lo), np.where(live & ~below, mid, hi)
    return 0.5 * (lo + hi)


def _cell(x):
    """The count bisection's last cell around each x: 2^-40 wide (the widest
    power of two within EDGE_TOL), doubled until both ends are floats (one ulp
    above 2^13), for halving stops at the first midpoint that is not a float."""
    w = np.full_like(x, 2.0 ** np.floor(np.log2(EDGE_TOL)))
    while True:
        a = np.floor(x / w) * w
        short = a + w - a != w  # the top end rounds
        if not short.any():
            return a, a + w
        w = np.where(short, 2.0 * w, w)


@lru_cache(maxsize=16)
def _eigenvalues(V: PotentialSpec, lambda_max: float, steps: int):
    """Neumann and Dirichlet eigenvalues below lambda_max, two sorted tuples, from
    brackets on [o, o + 2^M], o = floor(min V) - 1, 2^M the least power of two above
    lambda_max - o; one kernel call a round.  Cached: a window costs one pass."""
    if lambda_max > COUNT_LAMBDA_MAX * (steps / DEFAULT_STEPS) ** 2:
        raise DomainError(f"lambda_max {lambda_max:g} is above the range where "
                          f"{steps} steps count eigenvalues exactly")
    n_neu, n_dir = _rk4_fundamental(V, lambda_max, steps)[4:]
    dirichlet = np.repeat([False, True], [n_neu, n_dir])
    k = np.concatenate((np.arange(1, n_neu + 1), np.arange(1, n_dir + 1)))
    o = np.floor(V.min_value) - 1.0  # no eigenvalue lies below min V
    # per bracket end: energy, count of its kind, c'(1) or s(1); the first hi is never integrated
    state = np.repeat([[[o], [o + 2.0 ** np.frexp(lambda_max - o)[1]]],
                       [[0.0], [np.inf]], [[np.nan], [np.nan]]], k.size, axis=2)
    bisect = np.zeros(k.size, dtype=bool)
    while (i := np.flatnonzero(state[0, 1] > _cell(state[0, 0])[1])).size:
        (lo, hi), (n_lo, n_hi), (f_lo, f_hi) = state[:, :, i]
        with np.errstate(divide="ignore", invalid="ignore"):
            x = lo - f_lo * (hi - lo) / (f_hi - f_lo)
        secant = (n_hi - n_lo == 1) & (hi - lo <= 2.0**-4) & ~bisect[i] & np.isfinite(x)
        a, b = _cell(np.clip(np.where(secant, x, 0.5 * (lo + hi)), lo, np.nextafter(hi, -np.inf)))
        a = np.where(secant | (a > lo), a, b)  # a halving counts one cell end inside
        probes = np.stack((a, np.where(secant, b, a)))
        distinct, back = np.unique(probes, return_inverse=True)  # bits are batch-free
        _, c1p, s1, _, nn, nd = (v[back].reshape(probes.shape)
                                 for v in _rk4_fundamental(V, distinct, steps))
        new = np.stack(((lo, *probes, hi), (n_lo, *np.where(dirichlet[i], nd, nn), n_hi),
                        (f_lo, *np.where(dirichlet[i], s1, c1p), f_hi)))
        j = np.argmax(new[1] >= k[i], axis=0)  # the first point above the k-th eigenvalue
        state[:, :, i] = np.take_along_axis(new, np.stack((j - 1, j))[None], axis=1)
        bisect[i] = secant & (state[0, 1, i] - state[0, 0, i] > (hi - lo) / 4)
    roots = 0.5 * (state[0, 0] + state[0, 1])
    return tuple(roots[~dirichlet].tolist()), tuple(roots[dirichlet].tolist())


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
        HillBand(index=k + 1, alpha=edges[2 * k], beta=edges[2 * k + 1])
        for k in range(len(edges) // 2)
    ]


def bands_window(V: PotentialSpec, n_bands: int) -> float:
    """An energy above the first n_bands Hill bands: by comparison with the
    constant potential max V, the n-th Neumann and Dirichlet eigenvalues are
    at most n^2 pi^2 + max V."""
    return n_bands**2 * np.pi**2 + V.max_value + 1.0


def hill_bands_first_n(V: PotentialSpec, n_bands: int) -> list[HillBand]:
    """First n Hill bands, from one pass up to bands_window(V, n_bands)."""
    if n_bands < 1:
        raise DomainError(f"the number of Hill bands must be >= 1, got {n_bands}")
    return hill_bands(V, bands_window(V, n_bands))[:n_bands]


def dirichlet_eigenvalues(
    V: PotentialSpec, lambda_max: float, steps: int = DEFAULT_STEPS
) -> list[float]:
    """Dirichlet eigenvalues (the roots of s_lambda(1)) below lambda_max,
    every one of them, from the same counting pass as hill_bands."""
    return list(_eigenvalues(V, float(lambda_max), steps)[1])


def invert_discriminant_on_band(V: PotentialSpec, band: HillBand, w):
    """The unique lambda in the band with Delta(lambda) = w, |w| <= 1: a
    float for one target, an array of its shape for an array of targets."""
    w = np.asarray(w, dtype=float)
    if not np.all((-1.0 <= w) & (w <= 1.0)):
        raise DomainError(f"discriminant target {w} outside [-1, 1]")
    targets = w.ravel()
    fa, fb = discriminant_batch(V, [band.alpha, band.beta])[:, None] - targets
    lam = _bisect_many(lambda lams: discriminant_batch(V, lams) - targets,
                       np.full(w.size, band.alpha), np.full(w.size, band.beta),
                       band.index % 2 == 0, xtol=1e-13)
    # w at (or numerically beyond) an edge value
    edge = np.where(np.abs(fa) <= np.abs(fb), band.alpha, band.beta)
    lam = np.where(fa * fb < 0.0, lam, edge).reshape(w.shape)
    return float(lam) if w.ndim == 0 else lam


# The band inverter's model: Chebyshev-Lobatto nodes in lambda, cells of the
# seed table, and Newton steps per target.  Delta is entire in lambda: 32
# nodes fit it to ~3e-14 on the first bands of V = 0 and mathieu:20, and to
# ~3e-11 on a steep double well.  From the table's seed, 4 steps reach the
# model's root to rounding on all of them.
_MODEL_NODES = 32
_TABLE_CELLS = 256
_NEWTON_STEPS = 4
#: targets times bands per pass of an inverter call; a pass holds about 13
#: arrays of this size, so this bounds its working set to a few MB
_INVERT_CHUNK = 2**15


def _clenshaw(c, x):
    """numpy's chebval recurrence in three buffers, on a stack of series c at
    x: each gets Chebyshev.__call__'s bits, also after a top coefficient 0."""
    x2 = 2 * x
    c0, c1, t = (np.empty(np.broadcast_shapes(c.shape[1:], x.shape)) for _ in range(3))
    c0[...], c1[...] = c[-2], c[-1]
    for ci in c[-3::-1]:
        np.add(c0, np.multiply(c1, x2, out=t), out=t)  # the next c1
        np.subtract(ci, c1, out=c1)  # the next c0, faster in place
        c0, c1, t = c1, t, c0
    return np.add(c0, np.multiply(c1, x, out=t), out=t)


class BandInverter:
    """Fast vectorized inverse of Delta on each of a list of Hill bands.

    Delta is sampled at 32 Chebyshev-Lobatto nodes of each band, both edges
    included, all in one integration, and modeled by its Chebyshev
    interpolant (Delta is entire in lambda).  Each target w is seeded from a
    257-point table of the model, interpolated in k = arccos(+-Delta), which
    straightens the square-root shape of Delta at the band edges; the table
    cell that holds w brackets the root, and a fixed 4 Newton steps on the
    model polish it, bisecting the bracket wherever a step would leave it.
    The models and their derivatives are one stack, so one Clenshaw pass
    gives Delta and Delta' on every band, with each Chebyshev's own bits.
    No step depends on the other targets or bands, so a target's lambda is
    the same in any batch.  `model_error` is per band the size of the last
    two Chebyshev coefficients, an estimate of how far the model is from the
    integrated Delta.
    """

    def __init__(self, V: PotentialSpec, bands):
        self.bands = tuple(bands)
        for band in self.bands:  # a band narrower than the bisection cell has no model
            if not band.beta > band.alpha:
                raise DomainError(f"Hill band {band.index} [{band.alpha!r}, {band.beta!r}] "
                                  "is narrower than the cell its edges are bisected to")
        a, b = self._ends = np.array([(x.alpha, x.beta) for x in self.bands]).T[..., None]
        nodes = 0.5 * (a + b) - 0.5 * (b - a) * np.cos(
            np.pi * np.arange(_MODEL_NODES) / (_MODEL_NODES - 1))
        nodes[:, [0, -1]] = np.hstack((a, b))
        models = [Chebyshev.fit(x, y, _MODEL_NODES - 1, domain=x[[0, -1]])
                  for x, y in zip(nodes, discriminant_batch(V, nodes))]
        self.model_error = tuple(float(np.sum(np.abs(m.coef[-2:]))) for m in models)
        # (coefficient, Delta or Delta', band, 1), Delta' with a top 0
        self._coef = np.array([(m.coef, np.append(m.deriv().coef, 0.0))
                               for m in models]).T[..., None]
        self._off, self._scl = np.array([m.mapparms() for m in models]).T[..., None]
        # Delta(alpha) = -Delta(beta): +1 on odd bands, where Delta falls,
        # -1 on even ones, where it rises
        self._w_alpha = np.array([[1.0 if x.index % 2 else -1.0] for x in self.bands])
        # k rises from ~0 at alpha to ~pi at beta on every band
        self._table = np.linspace(a[:, 0], b[:, 0], _TABLE_CELLS + 1, axis=1)
        self._k = np.arccos(np.clip(self._w_alpha * self.delta(self._table), -1.0, 1.0))

    def delta(self, lam):
        """Each band's model of Delta at its row of lam, shape (bands, ...)."""
        lam = np.asarray(lam, dtype=float)
        x = self._off + self._scl * lam.reshape(len(self.bands), -1)
        return _clenshaw(self._coef[:, 0], x).reshape(lam.shape)

    @property
    def chunk(self) -> int:
        """Targets per pass of a call, at least one."""
        return max(1, _INVERT_CHUNK // len(self.bands))

    def __call__(self, w):
        """Invert an array of targets in [-1, 1] on every band; returns the
        lambdas, shape (bands, *w.shape), row k in band k."""
        w = np.atleast_1d(np.asarray(w, dtype=float))
        if not np.all(np.abs(w) <= 1.0 + 1e-12):  # NaN fails it too
            raise DomainError("discriminant target outside [-1, 1]")
        flat, step = w.ravel(), self.chunk
        lam = np.empty((len(self.bands), flat.size))
        for i in range(0, flat.size, step):
            lam[:, i:i + step] = self._invert(flat[i:i + step])
        return lam.reshape(len(self.bands), *w.shape)

    def _invert(self, w):
        """Invert a 1-D chunk of targets checked to lie in [-1, 1], one row
        per band, in place where it can, which bounds the pass's arrays."""
        w = np.clip(w, -1.0, 1.0)
        k = np.arccos(self._w_alpha * w)
        cell = np.clip([np.searchsorted(t, r, side="right") for t, r in zip(self._k, k)],
                       1, _TABLE_CELLS) - 1
        lo, k0 = (np.take_along_axis(a, cell, axis=1) for a in (self._table, self._k))
        hi, k1 = (np.take_along_axis(a, cell + 1, axis=1) for a in (self._table, self._k))
        # on a band a few ulp wide, table nodes repeat and a cell is flat
        # (k1 = k0): it seeds its low end
        lam = lo + np.clip(np.divide(k - k0, k1 - k0, out=np.zeros_like(k), where=k1 != k0),
                           0.0, 1.0) * (hi - lo)
        del k, k0, k1, cell
        with np.errstate(divide="ignore", invalid="ignore"):
            for _ in range(_NEWTON_STEPS):
                f, step = _clenshaw(self._coef, self._off + self._scl * lam)
                f -= w
                root_above = self._w_alpha * f > 0.0
                np.copyto(lo, lam, where=root_above)
                np.copyto(hi, lam, where=~root_above)
                np.subtract(lam, np.divide(f, step, out=step), out=step)
                lam = np.where((lo <= step) & (step <= hi), step, 0.5 * (lo + hi))
                del f, step
        # Delta = +-1 at the edges by definition; at a closed gap, where
        # Delta' = 0, a model error of 1e-15 would move that crossing by 1e-7
        at_edge = [w == self._w_alpha, w == -self._w_alpha]
        return np.select(at_edge, list(self._ends), lam)
